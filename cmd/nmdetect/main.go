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
	"sync/atomic"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/cli"
	"nmdetect/internal/core"
	"nmdetect/internal/detect"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
	"nmdetect/internal/supervise"
)

var (
	world    = cli.NewWorld(1, cli.Monitor|cli.Game|cli.Attack|cli.Dump)
	ck       = cli.NewCheckpoint()
	obsFlags = cli.NewObs(true)
	detector = flag.String("detector", "aware", "aware|blind")
	noEnf    = flag.Bool("noenforce", false, "observe only, never repair")
	fleetW   = flag.Int("fleet-workers", 0, "fleet-level worker budget (0 = all cores; execution-only, never affects results)")
	fleetRep = flag.String("fleet-report", "", "also write the fleet report as JSON to this file")
	fleetCk  = flag.String("fleet-checkpoint", "", "checkpoint directory for a fleet run (one file per community + manifest)")
	ckptK    = flag.Int("checkpoint-every", 10, "days between checkpoints")
	worker   = flag.Bool("fleet-worker", false, "run as a supervised fleet worker: drive one community batch, speak the NMW1 line protocol on stdout (used by cmd/nmfleet)")
	batch    = flag.Int("batch", 0, "fleet-worker batch index")
	batchSz  = flag.Int("batch-size", 0, "fleet-worker batch size (communities per worker)")
	batchRep = flag.String("batch-report", "", "fleet-worker batch report JSON path")
	heartBt  = flag.Duration("heartbeat", 5*time.Second, "fleet-worker heartbeat period")
)

func main() { cli.Main("nmdetect", realMain) }

func realMain(ctx context.Context) error {
	spec, err := world.Spec(nil)
	if err != nil {
		return err
	}
	// Flag checks that need no system run before the build, so a bad
	// invocation fails fast instead of after bootstrap, training and
	// calibration.
	if err := cli.CheckDetector(*detector); err != nil {
		return err
	}
	if err := obsFlags.Start(obs.RunConfig{Cmd: "nmdetect", ScenarioID: spec.ID(), Seed: spec.Seed, Workers: spec.Game.Workers}); err != nil {
		return err
	}

	if *worker {
		return runFleetWorker(ctx, spec)
	}
	if spec.FleetCommunities() > 1 {
		return runFleet(ctx, spec)
	}
	if *fleetRep != "" || *fleetCk != "" {
		return cli.Invalidf("-fleet-report/-fleet-checkpoint need a fleet (-communities >= 2 or a scenario fleet block)")
	}
	opts, err := spec.CoreOptions()
	if err != nil {
		return err
	}
	if err := ck.Guard(); err != nil {
		return err
	}
	// A stale or foreign checkpoint is refused before the offline phase, not
	// after bootstrap, training, calibration and the policy solve.
	if ck.Resume && checkpoint.Exists(ck.Path) {
		if err := checkpoint.Check(ck.Path, core.MonitorKind); err != nil {
			return err
		}
	}

	fmt.Fprintln(os.Stderr, "nmdetect: building system (bootstrap + training + calibration)...")
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nmdetect: channel rates — aware fp=%.4f fn=%.4f; blind fp=%.4f fn=%.4f\n",
		sys.AwareFP, sys.AwareFN, sys.BlindFP, sys.BlindFN)

	kit := sys.Aware
	if *detector == fleet.DetectorBlind {
		kit = sys.Blind
	}

	camp, err := sys.NewCampaign()
	if err != nil {
		return err
	}
	results, err := sys.MonitorDaysCheckpointed(ctx, kit, camp, spec.Horizon.MonitorDays, !*noEnf, ck.Path, *ckptK)
	if err != nil {
		return err
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
				slot, day.Flagged[h], day.ObsBucket[h], day.TrueBucket[h], day.TrueHacked[h], action)
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
	return nil
}

// fleetConfig lowers the spec plus the runtime flags into a fleet
// configuration (shared by the full-fleet and worker paths).
func fleetConfig(spec scenario.Spec) (fleet.Config, error) {
	fcfg, err := spec.FleetConfig()
	if err != nil {
		return fcfg, err
	}
	fcfg.Detector = *detector
	fcfg.Enforce = !*noEnf
	fcfg.Workers = *fleetW
	fcfg.CheckpointDir = *fleetCk
	fcfg.CheckpointEvery = *ckptK
	return fcfg, nil
}

// runFleet is the multi-community path: lower the spec into a fleet
// configuration, run the shared day loop and print the per-community table
// plus rollup.
func runFleet(ctx context.Context, spec scenario.Spec) error {
	fcfg, err := fleetConfig(spec)
	if err != nil {
		return err
	}
	if err := cli.GuardResume("-fleet-checkpoint", *fleetCk, fleet.ManifestPath(*fleetCk), ck.Resume); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "nmdetect: building fleet of %d communities x %d meters = %d meters...\n",
		fcfg.Communities, fcfg.Size, fcfg.Communities*fcfg.Size)
	rep, err := fleet.Run(ctx, fcfg)
	if err != nil {
		return err
	}
	if err := rep.Render(os.Stdout); err != nil || *fleetRep == "" {
		return err
	}
	return cli.WriteFile(*fleetRep, rep.WriteJSON)
}

// runFleetWorker is the hidden -fleet-worker mode cmd/nmfleet spawns: drive
// the communities of one batch (computed from the shared plan, so worker and
// supervisor always agree), speak the NMW1 line protocol on stdout, write
// the batch report durably and exit with a classified code. The supervisor
// owns the checkpoint directory: existing community checkpoints are resumed
// without a -resume flag, and the fleet/batch manifests refuse a foreign or
// re-planned directory with exit 4.
func runFleetWorker(ctx context.Context, spec scenario.Spec) error {
	if *fleetCk == "" {
		return cli.Invalidf("-fleet-worker requires -fleet-checkpoint")
	}
	if *batchRep == "" {
		return cli.Invalidf("-fleet-worker requires -batch-report")
	}
	fcfg, err := fleetConfig(spec)
	if err != nil {
		return err
	}
	plan, err := supervise.Plan(fcfg.Communities, *batchSz)
	if err != nil {
		return cli.Invalid(err)
	}
	if *batch < 0 || *batch >= len(plan) {
		return cli.Invalidf("batch %d outside plan of %d batches", *batch, len(plan))
	}
	b := plan[*batch]

	ew := supervise.NewEventWriter(os.Stdout, *batch)
	ew.Emit(supervise.WorkerEvent{Type: supervise.EventStart})
	// The slowest community's completed-day count, for heartbeat context.
	var lowDay atomic.Int64
	hbDone := make(chan struct{})
	defer close(hbDone)
	if *heartBt > 0 {
		go func() {
			t := time.NewTicker(*heartBt)
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

	rep, err := fleet.RunBatch(ctx, fcfg, *batch, b.Start, b.Count, func(community, day int) {
		lowDay.Store(int64(day)) // the fan-out barrier makes day monotone
		ew.Emit(supervise.WorkerEvent{Type: supervise.EventDay, Community: community, Day: day})
	})
	if err == nil {
		err = rep.WriteFile(*batchRep)
	}
	if err != nil {
		ew.Emit(supervise.WorkerEvent{Type: supervise.EventError, Msg: err.Error()})
		return err
	}
	// done is emitted only after the report is durable on disk: a supervisor
	// that saw done can always read the report.
	ew.Emit(supervise.WorkerEvent{Type: supervise.EventDone})
	return ew.Err()
}
