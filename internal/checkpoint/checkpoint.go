// Package checkpoint persists run state to disk so long monitoring runs can
// be killed and resumed. A checkpoint file is a gob stream: a small header
// (magic, format version, payload kind) followed by one payload value. The
// header is checked before any payload bytes are decoded, so a stale or
// foreign file fails loudly with ErrIncompatible instead of producing a
// half-decoded state. Writes go to a temp file in the target directory and
// are renamed into place, so a crash mid-write never corrupts the previous
// checkpoint.
//
// gob (not JSON) is deliberate: it round-trips every float bit for bit, NaN
// and ±Inf included, where encoding/json cannot represent non-finite floats.
package checkpoint

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nmdetect/internal/obs"
)

// Version is the on-disk format version. Bump it whenever the layout of any
// checkpointed payload type changes incompatibly; old files then fail with
// ErrIncompatible instead of decoding garbage. gob ignores stream fields the
// destination type lacks and leaves empty the fields the stream lacks, so
// moving a field is incompatible even though decoding succeeds.
const Version = 2

const magic = "NMCKPT"

// ErrIncompatible marks a file that is not a checkpoint, has a different
// format version, or holds a different payload kind than requested.
var ErrIncompatible = errors.New("checkpoint: incompatible file")

type header struct {
	Magic   string
	Version int
	// Kind names the payload type ("monitor-run", ...), so a checkpoint from
	// one subsystem is never decoded into another's state.
	Kind string
}

// fsyncDir opens dir and fsyncs it, making a just-renamed directory entry
// durable. A package variable so tests can observe the call and inject
// failures without a real crash.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Save atomically writes state to path. kind names the payload type and must
// match the kind passed to Load. The temp file is fsynced before the rename
// and the parent directory after it, so once Save returns nil the checkpoint
// survives a crash or power loss.
func Save(path, kind string, state any) error {
	start := time.Now()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	// On any failure remove the temp file; after a successful rename the
	// removal is a no-op on a nonexistent name.
	defer os.Remove(tmpName)
	enc := gob.NewEncoder(tmp)
	if err := enc.Encode(header{Magic: magic, Version: Version, Kind: kind}); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: encode header: %w", err)
	}
	if err := enc.Encode(state); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: encode state: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: commit: %w", err)
	}
	// The rename is only durable once the directory entry itself is on
	// disk; without this a crash can lose a checkpoint Save already
	// reported as written.
	if err := fsyncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	if sink := obs.Default(); sink != nil {
		sink.Count("checkpoint.saves", 1)
		sink.Observe("checkpoint.save_seconds", time.Since(start).Seconds())
	}
	return nil
}

// Load reads a checkpoint written by Save into state (a pointer to the same
// concrete type). It verifies the magic, format version and payload kind
// before decoding the payload.
func Load(path, kind string, state any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	if err := checkHeader(dec, path, kind); err != nil {
		return err
	}
	if err := dec.Decode(state); err != nil {
		return fmt.Errorf("checkpoint: %s: decode state: %w", path, err)
	}
	return nil
}

// Check verifies the magic, format version and payload kind of the
// checkpoint at path without decoding its payload, so a command can refuse
// an incompatible file before the work that precedes Load.
func Check(path, kind string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return checkHeader(gob.NewDecoder(f), path, kind)
}

// checkHeader decodes the header at the start of dec's stream and checks it
// against this build's magic and format version and the wanted kind.
func checkHeader(dec *gob.Decoder, path, kind string) error {
	var h header
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("checkpoint: %s: not a checkpoint file: %w (%w)", path, err, ErrIncompatible)
	}
	if h.Magic != magic {
		return fmt.Errorf("checkpoint: %s: bad magic %q: %w", path, h.Magic, ErrIncompatible)
	}
	if h.Version != Version {
		return fmt.Errorf("checkpoint: %s: format version %d, this build reads %d: %w",
			path, h.Version, Version, ErrIncompatible)
	}
	if h.Kind != kind {
		return fmt.Errorf("checkpoint: %s: holds %q state, want %q: %w", path, h.Kind, kind, ErrIncompatible)
	}
	return nil
}

// Exists reports whether a regular file exists at path. It does not verify
// the file is a readable checkpoint — Load does that.
func Exists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.Mode().IsRegular()
}
