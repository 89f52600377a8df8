// Package exitcode is the process exit-code taxonomy shared by every
// command and by the fleet supervisor. The supervisor restarts crashed
// workers, so a worker's exit status must say whether retrying can help:
//
//	0 — success
//	1 — panic: cli.Main recovered a panic and printed its stack. Retryable,
//	    like signal death; the supervisor's retry budget bounds a panic that
//	    recurs.
//	2 — validation: bad flags, an invalid scenario, conflicting options.
//	    Permanent: the same invocation fails the same way every time.
//	3 — runtime: anything that failed while doing the work (solver
//	    divergence, I/O, cancellation). Retryable — a resumed worker picks
//	    up from its last checkpoint.
//	4 — resume-incompatible: an existing checkpoint or manifest refuses
//	    the requested shape (checkpoint.ErrIncompatible and the manifest
//	    mismatch refusals). Permanent: retrying against the same state
//	    directory cannot succeed.
//
// Commands classify through For: checkpoint.ErrIncompatible maps to 4,
// errors wrapped with Validation map to 2, everything else to 3. A process
// killed by a signal has no exit code of its own; the supervisor treats
// signal death as retryable (see supervise.Retryable).
package exitcode

import (
	"errors"

	"nmdetect/internal/checkpoint"
)

// The taxonomy. An error never maps to Panic: only cli.Main's recover exits
// with it.
const (
	OK                 = 0
	Panic              = 1
	Validation         = 2
	Runtime            = 3
	ResumeIncompatible = 4
)

// errValidation is the sentinel validation errors wrap, matched by For via
// errors.Is.
var errValidation = errors.New("validation")

type validationError struct{ err error }

func (e validationError) Error() string { return e.err.Error() }
func (e validationError) Unwrap() error { return e.err }
func (e validationError) Is(target error) bool {
	return target == errValidation
}

// AsValidation marks err as a validation failure (exit Validation). The
// message is unchanged; only the classification is added. A nil err stays
// nil.
func AsValidation(err error) error {
	if err == nil {
		return nil
	}
	return validationError{err: err}
}

// For maps an error to its exit code: nil is OK, checkpoint.ErrIncompatible
// (at any depth) is ResumeIncompatible, AsValidation-wrapped errors are
// Validation, and everything else is Runtime. Incompatibility wins over
// validation so a refused resume is never mistaken for a flag typo.
func For(err error) int {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, checkpoint.ErrIncompatible):
		return ResumeIncompatible
	case errors.Is(err, errValidation):
		return Validation
	default:
		return Runtime
	}
}

// Retryable reports whether a worker that exited with code can make
// progress if restarted against the same state: panics and runtime failures
// (and any unclassified code, including the -1 Go reports for signal death)
// are retryable; success needs no retry; validation and resume-incompatibility
// fail identically every time.
func Retryable(code int) bool {
	switch code {
	case OK, Validation, ResumeIncompatible:
		return false
	default:
		return true
	}
}
