// Command nmdetect runs the full detection pipeline online: it builds the
// system (community, forecasters, calibrated POMDP), launches an attack
// campaign, and prints the per-slot monitoring log of the chosen detector.
//
// Usage:
//
//	nmdetect [-n 500] [-seed 42] [-days 2] [-sweeps 3] [-workers 0] [-jacobi 0]
//	         [-boot 6] [-detector aware|blind] [-solver pbvi|qmdp|threshold] [-noenforce]
//	         [-attack kind[:from-to[:value]]] [-strike-slots 2,8,14,20]
//	         [-communities 1] [-fleet-workers 0] [-fleet-report fleet.json] [-fleet-checkpoint dir]
//	         [-scenario file.json|preset] [-dump-scenario]
//	         [-checkpoint run.ckpt] [-checkpoint-every 10] [-resume]
//	         [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -scenario, the world is described by a scenario spec — a preset name
// or a JSON file — and the world-config flags (-n, -seed, -days, -sweeps,
// -workers, -jacobi, -boot, -solver, -communities) are ignored; -detector
// and -noenforce still apply. -dump-scenario prints the effective spec as
// JSON to stdout (and its content ID to stderr) and exits. SIGINT/SIGTERM
// cancel the build and the monitoring loop at the next sweep/day boundary.
//
// With -checkpoint, the monitoring state is snapshotted to the given file
// every -checkpoint-every days; a killed run restarted with the same flags
// plus -resume continues from the snapshot and produces bit-for-bit the
// output of an uninterrupted run. Without -resume an existing checkpoint is
// an error (stale state is never silently reused).
//
// With -communities F >= 2 (or a scenario fleet block), the run is a fleet:
// F independent communities of -n meters each, seeded by label derivation
// from the base seed, monitored through a shared day loop and aggregated
// into a per-community table plus rollup on stdout (-fleet-report also
// writes it as JSON). -fleet-workers bounds the fleet fan-out and never
// affects results. -fleet-checkpoint names a directory holding one
// checkpoint per community plus a fleet manifest; kill/-resume semantics
// match the single-community path.
//
// With -fleet-worker (spawned by cmd/nmfleet, not meant for direct use),
// the process drives one community batch of a supervised fleet: it computes
// its range from (-batch, -batch-size) via the shared plan, resumes any
// existing community checkpoints under -fleet-checkpoint, emits NMW1
// protocol lines on stdout and writes its batch report to -batch-report.
//
// Exit codes: 0 success, 2 validation (bad flags/spec/world), 3 runtime
// failure, 4 resume-incompatible (foreign or re-planned checkpoint state);
// 1 is reserved for untyped legacy failures.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/core"
	"nmdetect/internal/detect"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
	"nmdetect/internal/supervise"
)

func main() {
	var (
		n        = flag.Int("n", 500, "community size")
		seed     = flag.Uint64("seed", 42, "seed")
		days     = flag.Int("days", 2, "monitoring days")
		sweeps   = flag.Int("sweeps", 3, "game best-response sweeps")
		workers  = flag.Int("workers", 0, "worker budget (0 = all cores, 1 = sequential)")
		jacobi   = flag.Int("jacobi", 0, "game block-Jacobi size (0 = sequential Gauss-Seidel)")
		shards   = flag.Int("shards", 0, "hierarchical-solve shard count (<= 1 = flat solver, the reference semantics)")
		boot     = flag.Int("boot", 6, "bootstrap days")
		detector = flag.String("detector", "aware", "aware|blind")
		atkFlag  = flag.String("attack", "", "attack payload override: kind[:from-to[:value]], e.g. zero:16-17, scale:16-19:0.5, delay:3, false-reading:10-15:0.8, adaptive, invert (ignored with -scenario)")
		strikes  = flag.String("strike-slots", "", "coordinated strike slots, comma-separated day hours e.g. 2,8,14,20 (ignored with -scenario)")
		solver   = flag.String("solver", "pbvi", "pbvi|qmdp|threshold")
		noEnf    = flag.Bool("noenforce", false, "observe only, never repair")
		comms    = flag.Int("communities", 1, "fleet width: independent communities of -n meters each (>= 2 selects the fleet path)")
		fleetW   = flag.Int("fleet-workers", 0, "fleet-level worker budget (0 = all cores; execution-only, never affects results)")
		fleetRep = flag.String("fleet-report", "", "also write the fleet report as JSON to this file")
		fleetCk  = flag.String("fleet-checkpoint", "", "checkpoint directory for a fleet run (one file per community + manifest)")
		scenRef  = flag.String("scenario", "", "scenario preset name or JSON file (overrides the world-config flags)")
		dumpScen = flag.Bool("dump-scenario", false, "print the effective scenario spec as JSON and exit")
		ckpt     = flag.String("checkpoint", "", "checkpoint file for the monitoring run (empty = no checkpointing)")
		ckptK    = flag.Int("checkpoint-every", 10, "days between checkpoints")
		resume   = flag.Bool("resume", false, "resume from an existing checkpoint instead of failing on one")
		worker   = flag.Bool("fleet-worker", false, "run as a supervised fleet worker: drive one community batch, speak the NMW1 line protocol on stdout (used by cmd/nmfleet)")
		batch    = flag.Int("batch", 0, "fleet-worker batch index")
		batchSz  = flag.Int("batch-size", 0, "fleet-worker batch size (communities per worker)")
		batchRep = flag.String("batch-report", "", "fleet-worker batch report JSON path")
		heartBt  = flag.Duration("heartbeat", 5*time.Second, "fleet-worker heartbeat period")
		events   = flag.String("events", "", "write a JSONL run-event stream to this file")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec := scenario.Default(*n, *seed)
	spec.Horizon.BootstrapDays = *boot
	spec.Horizon.MonitorDays = *days
	spec.Game.Sweeps = *sweeps
	spec.Game.Workers = *workers
	spec.Game.JacobiBlock = *jacobi
	spec.Game.Shards = *shards
	spec.Detector.Solver = *solver
	if *atkFlag != "" {
		ab, err := scenario.ParseAttack(*atkFlag)
		if err != nil {
			fatal(exitcode.AsValidation(err))
		}
		spec.Attack = ab
	}
	if *strikes != "" {
		ss, err := scenario.ParseStrikeSlots(*strikes)
		if err != nil {
			fatal(exitcode.AsValidation(err))
		}
		spec.Campaign.StrikeSlots = ss
	}
	if *comms > 1 {
		spec.Fleet = &scenario.Fleet{Communities: *comms}
	}
	if *scenRef != "" {
		var err error
		if spec, err = scenario.Resolve(*scenRef); err != nil {
			fatal(exitcode.AsValidation(err))
		}
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
		Cmd: "nmdetect", EventsPath: *events, PprofAddr: *pprofA,
		CPUProfile: *cpuProf, MemProfile: *memProf,
		ScenarioID: spec.ID(), Seed: spec.Seed, Workers: spec.Game.Workers,
	}); err != nil {
		fatal(err)
	}
	defer func() {
		if err := obs.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "nmdetect:", err)
		}
	}()

	if *worker {
		runFleetWorker(ctx, spec, *detector, !*noEnf, *fleetW, *fleetCk, *ckptK, *batch, *batchSz, *batchRep, *heartBt)
		return
	}
	if spec.FleetCommunities() > 1 {
		runFleet(ctx, spec, *detector, !*noEnf, *fleetW, *fleetRep, *fleetCk, *ckptK, *resume)
		return
	}
	if *fleetRep != "" || *fleetCk != "" {
		fatal(exitcode.AsValidation(fmt.Errorf("-fleet-report/-fleet-checkpoint need a fleet (-communities >= 2 or a scenario fleet block)")))
	}

	opts, err := spec.CoreOptions()
	if err != nil {
		fatal(err)
	}
	// Flag checks that need no system run before the build, so a bad
	// invocation fails fast instead of after bootstrap, training and
	// calibration.
	if *detector != "aware" && *detector != "blind" {
		fatal(exitcode.AsValidation(fmt.Errorf("unknown detector %q", *detector)))
	}
	if *resume && *ckpt == "" {
		fatal(exitcode.AsValidation(fmt.Errorf("-resume requires -checkpoint")))
	}
	if *ckpt != "" && !*resume && checkpoint.Exists(*ckpt) {
		fatal(exitcode.AsValidation(fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it", *ckpt)))
	}

	fmt.Fprintln(os.Stderr, "nmdetect: building system (bootstrap + training + calibration)...")
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "nmdetect: channel rates — aware fp=%.4f fn=%.4f; blind fp=%.4f fn=%.4f\n",
		sys.AwareFP, sys.AwareFN, sys.BlindFP, sys.BlindFN)

	kit := sys.Aware
	if *detector == "blind" {
		kit = sys.Blind
	}

	camp, err := sys.NewCampaign()
	if err != nil {
		fatal(err)
	}
	results, err := sys.MonitorDaysCheckpointed(ctx, kit, camp, spec.Horizon.MonitorDays, !*noEnf, *ckpt, *ckptK)
	if err != nil {
		fatal(err)
	}

	fmt.Println("slot,flagged,obs_bucket,true_bucket,true_hacked,action")
	slot := 0
	for _, day := range results {
		for h := 0; h < 24; h++ {
			action := "continue"
			if day.Actions[h] == detect.ActionInspect {
				action = "INSPECT"
			}
			fmt.Printf("%d,%d,%d,%d,%d,%s\n",
				slot, day.Flagged[h], day.ObsBucket[h], day.TrueBucket[h], day.Trace.TrueHacked[h], action)
			slot++
		}
	}
	imputed, degraded := 0, 0
	for _, day := range results {
		imputed += day.ImputedReadings
		if day.Degraded {
			degraded++
		}
	}
	if degraded > 0 {
		fmt.Fprintf(os.Stderr, "nmdetect: degraded inputs on %d/%d days (%d readings imputed)\n",
			degraded, len(results), imputed)
	}
	delays, meanDelay := core.DetectionDelays(results)
	fmt.Fprintf(os.Stderr, "nmdetect: %s observation accuracy = %.2f%%, realized PAR = %.4f, inspections = %d\n",
		kit.Name, 100*core.ObservationAccuracy(results), core.RealizedPAR(results), core.TotalInspections(results))
	fmt.Fprintf(os.Stderr, "nmdetect: %d intrusion episodes, mean detection delay %.1f slots (-1 = never answered: %v)\n",
		len(delays), meanDelay, delays)
}

// fleetConfig lowers the spec plus runtime knobs into a fleet configuration
// (shared by the full-fleet and worker paths).
func fleetConfig(spec scenario.Spec, detector string, enforce bool, fleetWorkers int, ckptDir string, ckptEvery int) fleet.Config {
	fcfg, err := spec.FleetConfig()
	if err != nil {
		fatal(err)
	}
	switch detector {
	case "aware":
		fcfg.Detector = fleet.DetectorAware
	case "blind":
		fcfg.Detector = fleet.DetectorBlind
	default:
		fatal(exitcode.AsValidation(fmt.Errorf("unknown detector %q", detector)))
	}
	fcfg.Enforce = enforce
	fcfg.Workers = fleetWorkers
	fcfg.CheckpointDir = ckptDir
	fcfg.CheckpointEvery = ckptEvery
	return fcfg
}

// runFleet is the multi-community path: lower the spec into a fleet
// configuration, run the shared day loop and print the per-community table
// plus rollup.
func runFleet(ctx context.Context, spec scenario.Spec, detector string, enforce bool, fleetWorkers int, reportPath, ckptDir string, ckptEvery int, resume bool) {
	fcfg := fleetConfig(spec, detector, enforce, fleetWorkers, ckptDir, ckptEvery)
	if resume && ckptDir == "" {
		fatal(exitcode.AsValidation(fmt.Errorf("-resume requires -fleet-checkpoint in fleet mode")))
	}
	if ckptDir != "" && !resume && checkpoint.Exists(fleet.ManifestPath(ckptDir)) {
		fatal(exitcode.AsValidation(fmt.Errorf("fleet checkpoint dir %s already holds a run; pass -resume to continue it or remove it", ckptDir)))
	}
	fmt.Fprintf(os.Stderr, "nmdetect: building fleet of %d communities x %d meters = %d meters...\n",
		fcfg.Communities, fcfg.Size, fcfg.Communities*fcfg.Size)
	rep, err := fleet.Run(ctx, fcfg)
	if err != nil {
		fatal(err)
	}
	if err := rep.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// runFleetWorker is the hidden -fleet-worker mode cmd/nmfleet spawns: drive
// the communities of one batch (computed from the shared plan, so worker and
// supervisor always agree), speak the NMW1 line protocol on stdout, write
// the batch report durably and exit with a classified code. The supervisor
// owns the checkpoint directory: existing community checkpoints are resumed
// without a -resume flag, and the fleet/batch manifests refuse a foreign or
// re-planned directory with exit 4.
func runFleetWorker(ctx context.Context, spec scenario.Spec, detector string, enforce bool, fleetWorkers int, ckptDir string, ckptEvery, batch, batchSize int, reportPath string, heartbeat time.Duration) {
	if ckptDir == "" {
		fatal(exitcode.AsValidation(fmt.Errorf("-fleet-worker requires -fleet-checkpoint")))
	}
	if reportPath == "" {
		fatal(exitcode.AsValidation(fmt.Errorf("-fleet-worker requires -batch-report")))
	}
	fcfg := fleetConfig(spec, detector, enforce, fleetWorkers, ckptDir, ckptEvery)
	plan, err := supervise.Plan(fcfg.Communities, batchSize)
	if err != nil {
		fatal(exitcode.AsValidation(err))
	}
	if batch < 0 || batch >= len(plan) {
		fatal(exitcode.AsValidation(fmt.Errorf("batch %d outside plan of %d batches", batch, len(plan))))
	}
	b := plan[batch]

	ew := supervise.NewEventWriter(os.Stdout, batch)
	ew.Emit(supervise.WorkerEvent{Type: supervise.EventStart})
	// The slowest community's completed-day count, for heartbeat context.
	var lowDay atomic.Int64
	hbDone := make(chan struct{})
	defer close(hbDone)
	if heartbeat > 0 {
		go func() {
			t := time.NewTicker(heartbeat)
			defer t.Stop()
			for {
				select {
				case <-hbDone:
					return
				case <-t.C:
					ew.Emit(supervise.WorkerEvent{Type: supervise.EventHeartbeat, Day: int(lowDay.Load())})
				}
			}
		}()
	}

	rep, err := fleet.RunBatch(ctx, fcfg, batch, b.Start, b.Count, func(community, day int) {
		lowDay.Store(int64(day)) // the fan-out barrier makes day monotone
		ew.Emit(supervise.WorkerEvent{Type: supervise.EventDay, Community: community, Day: day})
	})
	if err != nil {
		ew.Emit(supervise.WorkerEvent{Type: supervise.EventError, Msg: err.Error()})
		fatal(err)
	}
	if err := rep.WriteFile(reportPath); err != nil {
		ew.Emit(supervise.WorkerEvent{Type: supervise.EventError, Msg: err.Error()})
		fatal(err)
	}
	// done is emitted only after the report is durable on disk: a supervisor
	// that saw done can always read the report.
	ew.Emit(supervise.WorkerEvent{Type: supervise.EventDone})
	if err := ew.Err(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	// os.Exit skips deferred calls; flush profiles and the event sink here.
	obs.Shutdown() //nolint:errcheck // already exiting on err
	fmt.Fprintln(os.Stderr, "nmdetect:", err)
	os.Exit(exitcode.For(err))
}
