// Command nmrepro regenerates every figure and table of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	nmrepro [-experiment all|fig3|fig4|fig5|fig6|table1|ablations|attacks|fleet] [-n 500]
//	        [-seed 42] [-boot 6] [-sweeps 3] [-days 2] [-workers 0] [-jacobi 0]
//	        [-solver pbvi|qmdp|threshold] [-csv DIR]
//	        [-communities 1] [-fleet-workers 0]
//	        [-scenario file.json|preset] [-dump-scenario]
//	        [-checkpoint run.ckpt] [-resume]
//	        [-report out.md] [-json out.json]
//	        [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The "ablations" experiment runs the DESIGN.md §5 studies (policy solver,
// forecast kernel, PV-forecast noise, flag threshold, sell-back divisor).
//
// The "attacks" experiment runs the detection-accuracy-vs-archetype sweep
// (DESIGN.md §16): the monitored window is repeated under every attack
// archetype — the paper's pricing attacks plus false readings, fabricated
// DSM shifts, ramp/delay variants, coordinated strike timing and the
// adaptive attacker tuned against the flagger threshold — and the per-
// archetype accuracy, PAR, inspections and detection delay are tabulated;
// -json writes the sweep as JSON.
//
// The "fleet" experiment runs the scenario as a multi-community fleet
// (-communities F >= 2 or a scenario fleet block): F independent
// communities of -n meters monitored with the net-metering-aware detector
// through the shared day loop, rendered as a per-community table plus
// rollup; -json writes the fleet report. -fleet-workers bounds the fleet
// fan-out and never affects results.
//
// With -scenario, the world is described by a scenario spec — a preset name
// (fig3, fig4, fig5, fig6, table1) or a JSON file — and the per-knob flags
// (-n, -seed, -boot, -sweeps, -days, -solver, -workers, -jacobi) are
// ignored. -dump-scenario prints the effective spec as JSON to stdout (and
// its content ID to stderr) and exits, which is how a flag-built run is
// turned into a reusable scenario file.
//
// With -csv, the raw series behind each figure are also written as CSV files
// into DIR for external plotting. SIGINT/SIGTERM cancel the run at the next
// sweep/iteration boundary.
//
// With -checkpoint, each completed experiment's results are snapshotted to
// the given file; a killed run restarted with the same flags plus -resume
// skips the recorded experiments (re-rendering their output from the
// snapshot) and computes only the missing ones. The snapshot is bound to the
// scenario's content ID, so resuming under a different spec fails loudly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/experiments"
	"nmdetect/internal/fleet"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
	"nmdetect/internal/timeseries"
)

// reproState checkpoints completed experiment results. Each experiment runs
// on its own freshly built system, so experiment granularity preserves
// bit-for-bit identity with an uninterrupted run.
type reproState struct {
	// ScenarioID guards against resuming under a different world.
	ScenarioID string
	F3, F4     *experiments.PredictionResult
	F5         *experiments.Fig5Result
	F6         *experiments.Fig6Result
	T1         *experiments.Table1Result
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig3|fig4|fig5|fig6|table1|ablations|attacks|fleet|all")
		comms      = flag.Int("communities", 1, "fleet width for -experiment fleet (independent communities of -n meters each)")
		fleetW     = flag.Int("fleet-workers", 0, "fleet-level worker budget (0 = all cores; execution-only, never affects results)")
		n          = flag.Int("n", 500, "community size (customers)")
		seed       = flag.Uint64("seed", 42, "experiment seed")
		boot       = flag.Int("boot", 6, "bootstrap (training) days")
		sweeps     = flag.Int("sweeps", 3, "game best-response sweeps")
		days       = flag.Int("days", 2, "monitoring days (fig6/table1)")
		solver     = flag.String("solver", "pbvi", "POMDP solver: pbvi|qmdp|threshold")
		atkFlag    = flag.String("attack", "", "attack payload override: kind[:from-to[:value]], e.g. scale:16-19:0.5, delay:3, false-reading:10-15:0.8, adaptive (ignored with -scenario)")
		strikes    = flag.String("strike-slots", "", "coordinated strike slots, comma-separated day hours e.g. 2,8,14,20 (ignored with -scenario)")
		workers    = flag.Int("workers", 0, "worker budget (0 = all cores, 1 = sequential)")
		jacobi     = flag.Int("jacobi", 0, "game block-Jacobi size (0 = sequential Gauss-Seidel)")
		shards     = flag.Int("shards", 0, "hierarchical-solve shard count (<= 1 = flat solver, the reference semantics)")
		csvDir     = flag.String("csv", "", "directory for CSV output (optional)")
		reportPath = flag.String("report", "", "also write a markdown report here (requires -experiment all)")
		jsonPath   = flag.String("json", "", "also write the report as JSON here (requires -experiment all)")
		scenRef    = flag.String("scenario", "", "scenario preset name or JSON file (overrides the world-config flags)")
		dumpScen   = flag.Bool("dump-scenario", false, "print the effective scenario spec as JSON and exit")
		ckpt       = flag.String("checkpoint", "", "checkpoint file for experiment results (empty = no checkpointing)")
		resume     = flag.Bool("resume", false, "resume from an existing checkpoint instead of failing on one")
		events     = flag.String("events", "", "write a JSONL run-event stream to this file")
		pprofA     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
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
		Cmd: "nmrepro", EventsPath: *events, PprofAddr: *pprofA,
		CPUProfile: *cpuProf, MemProfile: *memProf,
		ScenarioID: spec.ID(), Seed: spec.Seed, Workers: spec.Game.Workers,
	}); err != nil {
		fatal(err)
	}
	defer func() {
		if err := obs.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "nmrepro:", err)
		}
	}()

	cfg := spec.ExperimentsConfig()
	if err := cfg.Validate(); err != nil {
		fatal(exitcode.AsValidation(err))
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	if *experiment == "attacks" {
		if *ckpt != "" || *resume {
			fatal(exitcode.AsValidation(fmt.Errorf("-experiment attacks keeps no repro checkpoint")))
		}
		runAttackSweep(ctx, cfg, *jsonPath)
		return
	}

	if *experiment == "fleet" {
		if *ckpt != "" || *resume {
			fatal(exitcode.AsValidation(fmt.Errorf("-experiment fleet keeps no repro checkpoint; use nmdetect -fleet-checkpoint for resumable fleet runs")))
		}
		runFleetRepro(ctx, spec, cfg, *fleetW, *jsonPath)
		return
	}

	state := reproState{ScenarioID: spec.ID()}
	if *resume && *ckpt == "" {
		fatal(exitcode.AsValidation(fmt.Errorf("-resume requires -checkpoint")))
	}
	if *ckpt != "" && checkpoint.Exists(*ckpt) {
		if !*resume {
			fatal(exitcode.AsValidation(fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it", *ckpt)))
		}
		if err := checkpoint.Load(*ckpt, "repro-run", &state); err != nil {
			fatal(err)
		}
		if state.ScenarioID != spec.ID() {
			fatal(fmt.Errorf("checkpoint was taken for scenario %s, current spec is %s: %w", state.ScenarioID, spec.ID(), checkpoint.ErrIncompatible))
		}
	}
	save := func() {
		if *ckpt == "" {
			return
		}
		if err := checkpoint.Save(*ckpt, "repro-run", &state); err != nil {
			fatal(err)
		}
	}

	var (
		f3, f4 *experiments.PredictionResult
		f5     *experiments.Fig5Result
		f6     *experiments.Fig6Result
		t1     *experiments.Table1Result
		err    error
	)
	want := func(id string) bool { return *experiment == "all" || *experiment == id }

	if want("fig3") {
		fmt.Println("== Figure 3: prediction WITHOUT considering net metering ==")
		if f3 = state.F3; f3 == nil {
			if f3, err = experiments.Fig3(ctx, cfg); err != nil {
				fatal(err)
			}
			state.F3 = f3
			save()
		}
		renderPrediction(f3, "fig3", *csvDir, 1.4700)
	}
	if want("fig4") {
		fmt.Println("== Figure 4: prediction considering net metering ==")
		if f4 = state.F4; f4 == nil {
			if f4, err = experiments.Fig4(ctx, cfg); err != nil {
				fatal(err)
			}
			state.F4 = f4
			save()
		}
		renderPrediction(f4, "fig4", *csvDir, 1.3986)
	}
	if want("fig5") {
		fmt.Println("== Figure 5: zero-price cyberattack ==")
		if f5 = state.F5; f5 == nil {
			if f5, err = experiments.Fig5(ctx, cfg); err != nil {
				fatal(err)
			}
			state.F5 = f5
			save()
		}
		if err := experiments.RenderChart(os.Stdout, "guideline price ($/unit)",
			[]string{"published", "manipulated"}, f5.Published, f5.Manipulated); err != nil {
			fatal(err)
		}
		if err := experiments.RenderChart(os.Stdout, "attacked community load (kW)",
			[]string{"load"}, f5.AttackedLoad); err != nil {
			fatal(err)
		}
		fmt.Printf("attacked PAR = %.4f (paper 1.9037); peak at slot %d (paper 16-17)\n\n", f5.PAR, f5.PeakSlot)
		saveCSV(*csvDir, "fig5.csv", []string{"slot", "published", "manipulated", "load"},
			f5.Published, f5.Manipulated, f5.AttackedLoad)
	}
	if want("fig6") {
		fmt.Println("== Figure 6: 48h observation accuracy ==")
		if f6 = state.F6; f6 == nil {
			if f6, err = experiments.Fig6(ctx, cfg); err != nil {
				fatal(err)
			}
			state.F6 = f6
			save()
		}
		if err := experiments.RenderChart(os.Stdout, "cumulative observation accuracy",
			[]string{"net-metering-aware", "nm-blind"},
			timeseries.Series(f6.AwareBySlot), timeseries.Series(f6.BlindBySlot)); err != nil {
			fatal(err)
		}
		fmt.Printf("aware accuracy = %.2f%% (paper 95.14%%); blind = %.2f%% (paper 65.95%%)\n\n",
			100*f6.AwareAccuracy, 100*f6.BlindAccuracy)
		saveCSV(*csvDir, "fig6.csv", []string{"slot", "aware", "blind"},
			timeseries.Series(f6.AwareBySlot), timeseries.Series(f6.BlindBySlot))
	}
	if want("table1") {
		fmt.Println("== Table 1: detection comparison ==")
		if t1 = state.T1; t1 == nil {
			if t1, err = experiments.Table1(ctx, cfg); err != nil {
				fatal(err)
			}
			state.T1 = t1
			save()
		}
		fmt.Printf("%-24s %10s %12s %12s\n", "technique", "PAR", "inspections", "labor(norm)")
		for _, row := range []experiments.Table1Row{t1.NoDetection, t1.Blind, t1.Aware} {
			fmt.Printf("%-24s %10.4f %12d %12.4f\n", row.Technique, row.PAR, row.Inspections, row.LaborCost)
		}
		fmt.Printf("(paper: 1.6509 / 1.5422 / 1.4112; labor 1 vs 1.0067)\n\n")
	}

	if want("ablations") && *experiment == "ablations" {
		runAblations(ctx, cfg)
		return
	}

	if *experiment == "all" {
		fmt.Println("== Headline comparison against the paper ==")
		h := experiments.ComputeHeadline(f3, f4, f5, f6, t1)
		fmt.Println(h)

		if *reportPath != "" || *jsonPath != "" {
			rep := &experiments.Report{
				Config: cfg, Fig3: f3, Fig4: f4, Fig5: f5, Fig6: f6, Table1: t1,
				Headline: h, Generated: time.Now(),
			}
			if *reportPath != "" {
				if err := writeReport(*reportPath, rep.Render); err != nil {
					fatal(err)
				}
				fmt.Printf("\nreport written to %s\n", *reportPath)
			}
			if *jsonPath != "" {
				if err := writeReport(*jsonPath, rep.WriteJSON); err != nil {
					fatal(err)
				}
				fmt.Printf("\nJSON report written to %s\n", *jsonPath)
			}
		}

		fmt.Println()
		experiments.RenderComparisons(os.Stdout, []experiments.Comparison{
			{ID: "fig3", Quantity: "predicted-load PAR (NM-blind)", Paper: 1.4700, Measured: f3.PAR},
			{ID: "fig4", Quantity: "predicted-load PAR (NM-aware)", Paper: 1.3986, Measured: f4.PAR},
			{ID: "fig5", Quantity: "attacked-load PAR", Paper: 1.9037, Measured: f5.PAR},
			{ID: "fig6", Quantity: "observation accuracy (aware)", Paper: 0.9514, Measured: f6.AwareAccuracy},
			{ID: "fig6", Quantity: "observation accuracy (blind)", Paper: 0.6595, Measured: f6.BlindAccuracy},
			{ID: "table1", Quantity: "PAR no detection", Paper: 1.6509, Measured: t1.NoDetection.PAR},
			{ID: "table1", Quantity: "PAR NM-blind detection", Paper: 1.5422, Measured: t1.Blind.PAR},
			{ID: "table1", Quantity: "PAR NM-aware detection", Paper: 1.4112, Measured: t1.Aware.PAR},
			{ID: "table1", Quantity: "normalized labor (aware)", Paper: 1.0067, Measured: t1.Aware.LaborCost},
		})
	}
}

// runFleetRepro runs the multi-community fleet experiment: the scenario's
// world replicated across the fleet width, monitored with the aware
// detector, aggregated per community plus rollup.
func runFleetRepro(ctx context.Context, spec scenario.Spec, cfg experiments.Config, fleetWorkers int, jsonPath string) {
	communities := spec.FleetCommunities()
	if communities < 2 {
		fatal(fmt.Errorf("-experiment fleet needs a fleet: pass -communities >= 2 or a scenario fleet block"))
	}
	fmt.Printf("== Fleet: %d communities x %d meters, %d monitored days ==\n",
		communities, cfg.N, cfg.MonitorDays)
	rep, err := experiments.Fleet(ctx, cfg, communities, fleet.DetectorAware, fleetWorkers)
	if err != nil {
		fatal(err)
	}
	if err := rep.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if jsonPath != "" {
		if err := writeReport(jsonPath, rep.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("\nJSON fleet report written to %s\n", jsonPath)
	}
}

// runAttackSweep runs the detection-accuracy-vs-archetype sweep with the
// NM-aware detector enforcing.
func runAttackSweep(ctx context.Context, cfg experiments.Config, jsonPath string) {
	fmt.Printf("== Attack archetypes: N=%d, %d monitored days, NM-aware detector ==\n",
		cfg.N, cfg.MonitorDays)
	sweep, err := experiments.AttackSweep(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if err := sweep.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if jsonPath != "" {
		if err := writeReport(jsonPath, sweep.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("\nJSON attack-sweep report written to %s\n", jsonPath)
	}
}

func runAblations(ctx context.Context, cfg experiments.Config) {
	fmt.Println("== Ablation: POMDP policy solver ==")
	solverRows, err := experiments.AblationSolver(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	experiments.RenderSolverAblation(os.Stdout, solverRows)

	fmt.Println("\n== Ablation: forecaster kernel ==")
	kernelRows, err := experiments.AblationKernel(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	experiments.RenderKernelAblation(os.Stdout, kernelRows)

	fmt.Println("\n== Ablation: PV-forecast noise vs channel quality ==")
	noiseRows, err := experiments.AblationForecastNoise(ctx, cfg, []float64{0, 0.02, 0.05, 0.1, 0.2})
	if err != nil {
		fatal(err)
	}
	experiments.RenderForecastNoiseAblation(os.Stdout, noiseRows)

	fmt.Println("\n== Ablation: flag threshold τ ==")
	tauRows, err := experiments.AblationTau(ctx, cfg, []float64{0.25, 0.5, 1.0, 1.5, 2.5})
	if err != nil {
		fatal(err)
	}
	experiments.RenderTauAblation(os.Stdout, tauRows)

	fmt.Println("\n== Ablation: net-metering sell-back divisor W ==")
	sellRows, err := experiments.AblationSellBack(ctx, cfg, []float64{1, 1.5, 2, 3, 5})
	if err != nil {
		fatal(err)
	}
	experiments.RenderSellBackAblation(os.Stdout, sellRows)

	fmt.Println("\n== Ablation: attack payloads ([8]'s PAR and bill attacks) ==")
	atkRows, err := experiments.AblationAttacks(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	experiments.RenderAttackAblation(os.Stdout, atkRows)

	fmt.Println("\n== Ablation: zero-window position (the attacker's optimization) ==")
	winRows, err := experiments.AblationAttackWindow(ctx, cfg, []int{2, 8, 12, 16, 20})
	if err != nil {
		fatal(err)
	}
	experiments.RenderWindowSweep(os.Stdout, winRows)

	fmt.Println("\n== Ablation: battery storage contribution ==")
	battRows, err := experiments.AblationBattery(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	experiments.RenderBatteryAblation(os.Stdout, battRows)

	fmt.Println("\n== Extension: meter-side price filter (package mitigate) ==")
	mit, err := experiments.Mitigation(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("clean PAR %.4f | attacked %.4f | filtered %.4f (%d slots clamped)\n",
		mit.CleanPAR, mit.AttackedPAR, mit.FilteredPAR, mit.ClampedSlots)
}

func renderPrediction(r *experiments.PredictionResult, id, csvDir string, paperPAR float64) {
	if err := experiments.RenderChart(os.Stdout, "guideline price ($/unit)",
		[]string{"received", "predicted"}, r.Received, r.Predicted); err != nil {
		fatal(err)
	}
	if err := experiments.RenderChart(os.Stdout, "predicted community load (kW)",
		[]string{"load"}, r.PredictedLoad); err != nil {
		fatal(err)
	}
	fmt.Printf("predicted-load PAR = %.4f (paper %.4f); price RMSE = %.5f\n\n", r.PAR, paperPAR, r.PriceRMSE)
	saveCSV(csvDir, id+".csv", []string{"slot", "received", "predicted", "load"},
		r.Received, r.Predicted, r.PredictedLoad)
}

func saveCSV(dir, name string, header []string, series ...timeseries.Series) {
	if dir == "" {
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := experiments.WriteCSV(f, header, series...); err != nil {
		fatal(err)
	}
}

// writeReport creates path and streams render into it.
func writeReport(path string, render func(io.Writer) error) error {
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

func fatal(err error) {
	// os.Exit skips deferred calls; flush profiles and the event sink here.
	obs.Shutdown() //nolint:errcheck // already exiting on err
	fmt.Fprintln(os.Stderr, "nmrepro:", err)
	os.Exit(exitcode.For(err))
}
