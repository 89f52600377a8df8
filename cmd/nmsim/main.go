// Command nmsim runs the community simulator: it draws a synthetic
// community, bootstraps the utility's pricing process, and prints the daily
// traces (price, renewable generation, community load, grid demand) as CSV.
//
// Usage:
//
//	nmsim [-n 500] [-seed 42] [-days 7] [-sweeps 3] [-workers 0] [-jacobi 0]
//	      [-nonm] [-attack kind] [-from 16] [-to 17] [-factor 0.5]
//	      [-communities 1] [-fleet-workers 0]
//	      [-scenario file.json|preset] [-dump-scenario]
//	      [-checkpoint run.ckpt] [-checkpoint-every 10] [-resume]
//	      [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With an attack selected, every meter is compromised on the final day and
// the realized (attacked) trace is printed for that day. -attack accepts a
// bare kind (zero|scale|ramp|load-shift|invert|none, windowed by
// -from/-to/-factor) or the compact scenario form kind[:from-to[:value]]
// (e.g. delay:3, false-reading:10-15:0.8, adaptive:16-19:0.9), which
// overrides the window flags.
//
// With -communities F >= 2 (or a scenario fleet block), the simulation is a
// fleet of F independent communities of -n meters each, seeded by label
// derivation from the base seed and advanced through a shared day loop
// (-fleet-workers bounds the fan-out; it never affects results). Traces are
// written per community: to stdout as sections separated by "# community"
// comment lines, or — with -o trace.csv — to one file per community
// (trace.c000.csv, trace.c001.csv, ...). Fleet mode simulates clean
// open-loop days only; -attack, -checkpoint and -history apply to the
// single-community path.
//
// With -scenario, the world is described by a scenario spec — a preset name
// or a JSON file — and the world-config flags (-n, -seed, -days, -sweeps,
// -workers, -jacobi, -attack, -from, -to, -factor) are ignored; -nonm and the
// output flags still apply. -dump-scenario prints the effective spec as JSON
// to stdout (and its content ID to stderr) and exits. SIGINT/SIGTERM cancel
// the simulation at the next per-customer solve boundary.
//
// With -checkpoint, the simulation state is snapshotted to the given file
// every -checkpoint-every days; a killed run restarted with the same flags
// plus -resume continues from the snapshot and prints the same trace an
// uninterrupted run would have.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"nmdetect/internal/attack"
	"nmdetect/internal/checkpoint"
	"nmdetect/internal/community"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/scenario"
	"nmdetect/internal/traceio"
)

// simState is the checkpoint payload of an open-loop simulation run.
type simState struct {
	Completed   int
	NetMetering bool
	Engine      community.EngineState
	Rows        []traceio.Row
}

func main() {
	var (
		n        = flag.Int("n", 500, "community size")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		days     = flag.Int("days", 7, "days to simulate")
		sweeps   = flag.Int("sweeps", 3, "game best-response sweeps")
		workers  = flag.Int("workers", 0, "worker budget (0 = all cores, 1 = sequential)")
		jacobi   = flag.Int("jacobi", 0, "game block-Jacobi size (0 = sequential Gauss-Seidel)")
		shards   = flag.Int("shards", 0, "hierarchical-solve shard count (<= 1 = flat solver, the reference semantics)")
		noNM     = flag.Bool("nonm", false, "disable net metering in the world model")
		atkStr   = flag.String("attack", "none", "attack on the final day: a kind (zero|scale|ramp|load-shift|invert|none) windowed by -from/-to/-factor, or the compact form kind[:from-to[:value]] (delay:3, false-reading:10-15:0.8, adaptive:16-19:0.9)")
		from     = flag.Int("from", 16, "attack window start slot")
		to       = flag.Int("to", 17, "attack window end slot")
		factor   = flag.Float64("factor", 0.5, "scale attack factor")
		comms    = flag.Int("communities", 1, "fleet width: independent communities of -n meters each (>= 2 selects the fleet path)")
		fleetW   = flag.Int("fleet-workers", 0, "fleet-level worker budget (0 = all cores; execution-only, never affects results)")
		out      = flag.String("o", "", "write the trace to this file instead of stdout")
		histFile = flag.String("history", "", "also write the forecaster-training history CSV here")
		scenRef  = flag.String("scenario", "", "scenario preset name or JSON file (overrides the world-config flags)")
		dumpScen = flag.Bool("dump-scenario", false, "print the effective scenario spec as JSON and exit")
		ckpt     = flag.String("checkpoint", "", "checkpoint file for the simulation (empty = no checkpointing)")
		ckptK    = flag.Int("checkpoint-every", 10, "days between checkpoints")
		resume   = flag.Bool("resume", false, "resume from an existing checkpoint instead of failing on one")
		events   = flag.String("events", "", "write a JSONL run-event stream to this file")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Flag-built spec: nmsim's -attack none means "no campaign at all",
	// which the spec expresses as attack kind "none" (identity payload).
	spec := scenario.Default(*n, *seed)
	spec.Horizon.SimDays = *days
	spec.Game.Sweeps = *sweeps
	spec.Game.Workers = *workers
	spec.Game.JacobiBlock = *jacobi
	spec.Game.Shards = *shards
	if strings.ContainsRune(*atkStr, ':') {
		ab, err := scenario.ParseAttack(*atkStr)
		if err != nil {
			fatal(exitcode.AsValidation(err))
		}
		spec.Attack = ab
	} else {
		spec.Attack = scenario.Attack{Kind: *atkStr, From: *from, To: *to, Factor: *factor}
	}
	if *comms > 1 {
		spec.Fleet = &scenario.Fleet{Communities: *comms}
	}
	campaignWanted := spec.Attack.Kind != "none"
	if *scenRef != "" {
		var err error
		if spec, err = scenario.Resolve(*scenRef); err != nil {
			fatal(exitcode.AsValidation(err))
		}
		campaignWanted = spec.Attack.Kind != "none"
	}
	if err := spec.Validate(); err != nil {
		fatal(exitcode.AsValidation(err))
	}
	if *dumpScen {
		if err := spec.Save(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, spec.ID())
		return
	}

	if err := obs.Setup(obs.RunConfig{
		Cmd: "nmsim", EventsPath: *events, PprofAddr: *pprofA,
		CPUProfile: *cpuProf, MemProfile: *memProf,
		ScenarioID: spec.ID(), Seed: spec.Seed, Workers: spec.Game.Workers,
	}); err != nil {
		fatal(err)
	}
	defer func() {
		if err := obs.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "nmsim:", err)
		}
	}()

	netMeteringFleet := !*noNM
	if spec.FleetCommunities() > 1 {
		if campaignWanted || *ckpt != "" || *resume || *histFile != "" {
			fatal(exitcode.AsValidation(fmt.Errorf("fleet mode (-communities >= 2) simulates clean open-loop days; -attack, -checkpoint, -resume and -history need a single community")))
		}
		runFleetSim(ctx, spec, netMeteringFleet, *fleetW, *out)
		return
	}

	engine, err := spec.NewEngine()
	if err != nil {
		fatal(err)
	}

	netMetering := !*noNM
	simDays := spec.Horizon.SimDays
	if *ckptK < 1 {
		*ckptK = 1
	}
	if *resume && *ckpt == "" {
		fatal(exitcode.AsValidation(fmt.Errorf("-resume requires -checkpoint")))
	}
	startDay := 0
	var rows []traceio.Row
	if *ckpt != "" && checkpoint.Exists(*ckpt) {
		if !*resume {
			fatal(exitcode.AsValidation(fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it", *ckpt)))
		}
		var st simState
		if err := checkpoint.Load(*ckpt, "sim-run", &st); err != nil {
			fatal(err)
		}
		if st.NetMetering != netMetering {
			fatal(fmt.Errorf("checkpoint was taken with net metering %v, resuming with %v: %w", st.NetMetering, netMetering, checkpoint.ErrIncompatible))
		}
		if st.Completed > simDays {
			fatal(fmt.Errorf("checkpoint already holds %d days, requested only %d", st.Completed, simDays))
		}
		if err := engine.RestoreState(st.Engine); err != nil {
			fatal(err)
		}
		startDay, rows = st.Completed, st.Rows
		fmt.Fprintf(os.Stderr, "nmsim: resumed at day %d\n", startDay)
	}
	save := func(completed int) {
		st := simState{Completed: completed, NetMetering: netMetering, Engine: engine.State(), Rows: rows}
		if err := checkpoint.Save(*ckpt, "sim-run", &st); err != nil {
			fatal(err)
		}
	}
	for d := startDay; d < simDays; d++ {
		env, err := engine.PrepareDay(ctx, netMetering)
		if err != nil {
			fatal(err)
		}
		var camp *attack.Campaign
		if campaignWanted && d == simDays-1 {
			atk, err := spec.BuildAttack()
			if err != nil {
				fatal(err)
			}
			camp, err = attack.NewCampaign(spec.N, 0, 1, 1, atk)
			if err != nil {
				fatal(err)
			}
			camp.HackNow(spec.N, rng.New(spec.Seed).Derive("nmsim-attack"))
		}
		trace, err := engine.SimulateDay(ctx, env, camp, netMetering, nil)
		if err != nil {
			fatal(err)
		}
		for h := 0; h < 24; h++ {
			rows = append(rows, traceio.Row{
				Day:        d,
				Slot:       h,
				Price:      env.Published[h],
				Renewable:  env.Renewable[h],
				Load:       trace.Load[h],
				GridDemand: trace.GridDemand[h],
				Hacked:     trace.TrueHacked[h],
			})
		}
		if *ckpt != "" && ((d+1)%*ckptK == 0 || d+1 == simDays) {
			save(d + 1)
		}
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := traceio.WriteTrace(dst, rows); err != nil {
		fatal(err)
	}
	if *histFile != "" {
		f, err := os.Create(*histFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := traceio.WriteHistory(f, engine.History()); err != nil {
			fatal(err)
		}
	}
}

// runFleetSim drives a fleet of engines through the shared open-loop day
// loop and writes one trace per community.
func runFleetSim(ctx context.Context, spec scenario.Spec, netMetering bool, workers int, out string) {
	f := spec.FleetCommunities()
	engines := make([]*community.Engine, f)
	for i := range engines {
		eng, err := spec.CommunitySpec(i).NewEngine()
		if err != nil {
			fatal(fmt.Errorf("community %d: %w", i, err))
		}
		engines[i] = eng
	}
	rows := make([][]traceio.Row, f)
	for d := 0; d < spec.Horizon.SimDays; d++ {
		res, err := fleet.SimDay(ctx, workers, engines, netMetering)
		if err != nil {
			fatal(err)
		}
		for i, r := range res {
			for h := 0; h < 24; h++ {
				rows[i] = append(rows[i], traceio.Row{
					Day:        d,
					Slot:       h,
					Price:      r.Env.Published[h],
					Renewable:  r.Env.Renewable[h],
					Load:       r.Trace.Load[h],
					GridDemand: r.Trace.GridDemand[h],
					Hacked:     r.Trace.TrueHacked[h],
				})
			}
		}
	}
	if out == "" {
		for i := range rows {
			fmt.Printf("# community %03d seed=%d\n", i, fleet.CommunitySeed(spec.Seed, i))
			if err := traceio.WriteTrace(os.Stdout, rows[i]); err != nil {
				fatal(err)
			}
		}
		return
	}
	for i := range rows {
		path := communityOut(out, i)
		fh, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := traceio.WriteTrace(fh, rows[i]); err != nil {
			fh.Close()
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "nmsim: wrote %d community traces (%s .. %s)\n",
		f, communityOut(out, 0), communityOut(out, f-1))
}

// communityOut inserts the community index before the extension:
// trace.csv -> trace.c007.csv.
func communityOut(out string, i int) string {
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.c%03d%s", strings.TrimSuffix(out, ext), i, ext)
}

func fatal(err error) {
	// os.Exit skips deferred calls; flush profiles and the event sink here.
	obs.Shutdown() //nolint:errcheck // already exiting on err
	fmt.Fprintln(os.Stderr, "nmsim:", err)
	os.Exit(exitcode.For(err))
}
