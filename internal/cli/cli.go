// Package cli is the command-line layer the commands under cmd/ share: the
// exit path (Main), the flag groups that describe a world and their lowering
// onto a scenario.Spec, the observability flags and their lifecycle, and the
// checks several commands apply to their flags.
//
// Every group registers on flag.CommandLine, so a command can still ask
// which flags were set with flag.Visit.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
)

// ErrDumped is what World.Spec returns once -dump-scenario has printed the
// spec. Like flag.ErrHelp, it ends the command, and Main exits 0 on it.
var ErrDumped = errors.New("cli: scenario dumped")

// Main parses the command line, runs body under a context that SIGINT and
// SIGTERM cancel, and exits. On the way out it calls obs.Shutdown once, so a
// failed event-stream flush fails an otherwise successful run; it then
// prints "name: err" for a failure and exits with the code exitcode.For
// assigns (DESIGN.md §14).
func Main(name string, body func(ctx context.Context) error) {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := body(ctx)
	stop()
	if errors.Is(err, ErrDumped) {
		err = nil
	}
	// The body's error is the diagnosis; a flush error behind it is dropped.
	if serr := obs.Shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(exitcode.For(err))
}

// Invalid marks err as a validation failure: Main exits 2 on it.
func Invalid(err error) error { return exitcode.AsValidation(err) }

// Invalidf is Invalid(fmt.Errorf(format, a...)).
func Invalidf(format string, a ...any) error { return Invalid(fmt.Errorf(format, a...)) }

// Groups selects the flag groups a World registers next to the world flags
// -n -seed -sweeps -communities -scenario.
type Groups uint

const (
	Monitor Groups = 1 << iota // -days -boot -solver
	Game                       // -workers -jacobi -shards
	Attack                     // -attack -strike-slots
	Dump                       // -dump-scenario
)

// World is the flag surface that describes a run's world; Spec lowers it
// onto a scenario.Spec.
type World struct {
	n, sweeps, communities  int
	seed                    uint64
	scenario                string
	days, boot              int
	solver                  string
	workers, jacobi, shards int
	attack, strikes         string
	dump                    bool
}

// NewWorld registers the world flags, with -communities defaulting to
// communities, and the selected groups. Every flag defaults to the value
// scenario.Default(500, 42) holds, and a group left unregistered keeps those
// values, so lowering applies every field.
func NewWorld(communities int, groups Groups) *World {
	d := scenario.Default(500, 42)
	w := &World{
		n: d.N, seed: d.Seed, sweeps: d.Game.Sweeps, communities: communities,
		days: d.Horizon.MonitorDays, boot: d.Horizon.BootstrapDays, solver: d.Detector.Solver,
		workers: d.Game.Workers, jacobi: d.Game.JacobiBlock, shards: d.Game.Shards,
	}
	flag.IntVar(&w.n, "n", w.n, "community size (customers)")
	flag.Uint64Var(&w.seed, "seed", w.seed, "world seed")
	flag.IntVar(&w.sweeps, "sweeps", w.sweeps, "game best-response sweeps")
	flag.IntVar(&w.communities, "communities", w.communities, "fleet width: independent communities of -n meters each (>= 2 selects the fleet path)")
	flag.StringVar(&w.scenario, "scenario", "", "scenario preset name or JSON file (replaces the world flags)")
	if groups&Monitor != 0 {
		flag.IntVar(&w.days, "days", w.days, "monitoring days")
		flag.IntVar(&w.boot, "boot", w.boot, "bootstrap (training) days")
		flag.StringVar(&w.solver, "solver", w.solver, "POMDP solver: pbvi|qmdp|threshold")
	}
	if groups&Game != 0 {
		flag.IntVar(&w.workers, "workers", w.workers, "worker budget (0 = all cores, 1 = sequential)")
		flag.IntVar(&w.jacobi, "jacobi", w.jacobi, "game block-Jacobi size (0 = sequential Gauss-Seidel)")
		flag.IntVar(&w.shards, "shards", w.shards, "hierarchical-solve shard count (<= 1 = flat solver, the reference semantics)")
	}
	if groups&Attack != 0 {
		flag.StringVar(&w.attack, "attack", "", "attack payload override: kind[:from-to[:value]], e.g. zero:16-17, scale:16-19:0.5, delay:3, false-reading:10-15:0.8, adaptive, invert")
		flag.StringVar(&w.strikes, "strike-slots", "", "coordinated strike slots, comma-separated day hours e.g. 2,8,14,20")
	}
	if groups&Dump != 0 {
		flag.BoolVar(&w.dump, "dump-scenario", false, "print the effective scenario spec as JSON (its content ID to stderr) and exit")
	}
	return w
}

// Spec lowers the flags onto a spec: scenario.Default(-n, -seed) with the
// world flags applied, then extra (the command's own world flags; may be
// nil); -scenario replaces the result, which is then validated. A failure in
// any of these steps is a validation error. With -dump-scenario, Spec prints
// the spec as JSON to stdout and its content ID to stderr, and returns
// ErrDumped.
func (w *World) Spec(extra func(*scenario.Spec) error) (scenario.Spec, error) {
	spec, err := w.lower(extra)
	if err != nil {
		return spec, Invalid(err)
	}
	if !w.dump {
		return spec, nil
	}
	if err := spec.Save(os.Stdout); err != nil {
		return spec, err
	}
	fmt.Fprintln(os.Stderr, spec.ID())
	return spec, ErrDumped
}

func (w *World) lower(extra func(*scenario.Spec) error) (scenario.Spec, error) {
	var err error
	spec := scenario.Default(w.n, w.seed)
	spec.Horizon.MonitorDays, spec.Horizon.BootstrapDays = w.days, w.boot
	spec.Detector.Solver = w.solver
	spec.Game.Sweeps, spec.Game.Workers = w.sweeps, w.workers
	spec.Game.JacobiBlock, spec.Game.Shards = w.jacobi, w.shards
	if w.attack != "" {
		if spec.Attack, err = scenario.ParseAttack(w.attack); err != nil {
			return spec, err
		}
	}
	if w.strikes != "" {
		if spec.Campaign.StrikeSlots, err = scenario.ParseStrikeSlots(w.strikes); err != nil {
			return spec, err
		}
	}
	if w.communities > 1 {
		spec.Fleet = &scenario.Fleet{Communities: w.communities}
	}
	if extra != nil {
		if err := extra(&spec); err != nil {
			return spec, err
		}
	}
	if w.scenario != "" {
		if spec, err = scenario.Resolve(w.scenario); err != nil {
			return spec, err
		}
	}
	return spec, spec.Validate()
}

// Obs is the observability flag group: -events, plus -pprof, -cpuprofile
// and -memprofile where the command registers profiling.
type Obs struct {
	events, pprof, cpuProfile, memProfile string
}

// NewObs registers -events and, with profiling, the profiling flags.
func NewObs(profiling bool) *Obs {
	o := new(Obs)
	flag.StringVar(&o.events, "events", "", "write a JSONL run-event stream to this file")
	if profiling {
		flag.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	}
	return o
}

// Start opens the event stream, whose manifest run describes, and starts
// the profiling hooks. Main's obs.Shutdown flushes and closes both.
func (o *Obs) Start(run obs.RunConfig) error {
	run.EventsPath, run.PprofAddr, run.CPUProfile, run.MemProfile = o.events, o.pprof, o.cpuProfile, o.memProfile
	return obs.Setup(run)
}

// Checkpoint is the -checkpoint/-resume flag group.
type Checkpoint struct {
	Path   string
	Resume bool
}

// NewCheckpoint registers -checkpoint and -resume.
func NewCheckpoint() *Checkpoint {
	c := new(Checkpoint)
	flag.StringVar(&c.Path, "checkpoint", "", "checkpoint file (empty = no checkpointing)")
	flag.BoolVar(&c.Resume, "resume", false, "resume from an existing checkpoint instead of failing on one")
	return c
}

// Guard is GuardResume for the -checkpoint file.
func (c *Checkpoint) Guard() error { return GuardResume("-checkpoint", c.Path, c.Path, c.Resume) }

// GuardResume is the resume guard: -resume needs a checkpoint (path, given
// by flagName), and a checkpoint whose probe file exists needs -resume, so
// stale state is never silently reused or overwritten. Both refusals are
// validation errors.
func GuardResume(flagName, path, probe string, resume bool) error {
	if resume && path == "" {
		return Invalidf("-resume requires %s", flagName)
	}
	if path != "" && !resume && checkpoint.Exists(probe) {
		return Invalidf("checkpoint %s already exists; pass -resume to continue it or remove it", path)
	}
	return nil
}

// CheckDetector refuses a -detector other than aware or blind.
func CheckDetector(name string) error {
	if name != fleet.DetectorAware && name != fleet.DetectorBlind {
		return Invalidf("unknown detector %q (want %s or %s)", name, fleet.DetectorAware, fleet.DetectorBlind)
	}
	return nil
}

// WriteFile creates path and streams render into it. It returns the first of
// the create, render and close errors.
func WriteFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
