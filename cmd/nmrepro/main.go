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
// into DIR for external plotting. -report needs -experiment all, and -json
// needs all, attacks or fleet; an unknown experiment or a flag the run would
// ignore exits 2 before anything is built. SIGINT/SIGTERM cancel the run at
// the next sweep/iteration boundary.
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
	"path/filepath"
	"slices"
	"strings"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/cli"
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

var (
	world      = cli.NewWorld(1, cli.Monitor|cli.Game|cli.Attack|cli.Dump)
	ck         = cli.NewCheckpoint()
	obsFlags   = cli.NewObs(true)
	experiment = flag.String("experiment", "all", strings.Join(experimentNames, "|"))
	fleetW     = flag.Int("fleet-workers", 0, "fleet-level worker budget (0 = all cores; execution-only, never affects results)")
	csvDir     = flag.String("csv", "", "directory for CSV output (optional)")
	reportPath = flag.String("report", "", "also write a markdown report here (requires -experiment all)")
	jsonPath   = flag.String("json", "", "also write the report as JSON here (requires -experiment all, attacks or fleet)")
)

// experimentNames are the -experiment values.
var experimentNames = []string{"fig3", "fig4", "fig5", "fig6", "table1", "ablations", "attacks", "fleet", "all"}

func main() { cli.Main("nmrepro", realMain) }

func realMain(ctx context.Context) error {
	// Refuse what the run would ignore before anything is built.
	switch {
	case !slices.Contains(experimentNames, *experiment):
		return cli.Invalidf("unknown experiment %q (want %s)", *experiment, strings.Join(experimentNames, "|"))
	case *reportPath != "" && *experiment != "all":
		return cli.Invalidf("-report requires -experiment all")
	case *jsonPath != "" && !slices.Contains([]string{"all", "attacks", "fleet"}, *experiment):
		return cli.Invalidf("-json requires -experiment all, attacks or fleet")
	case (*experiment == "attacks" || *experiment == "fleet") && (ck.Path != "" || ck.Resume):
		return cli.Invalidf("-experiment %s keeps no repro checkpoint (nmdetect -fleet-checkpoint resumes fleet runs)", *experiment)
	}
	spec, err := world.Spec(nil)
	if err != nil {
		return err
	}
	if *experiment == "fleet" && spec.FleetCommunities() < 2 {
		return cli.Invalidf("-experiment fleet needs a fleet: pass -communities >= 2 or a scenario fleet block")
	}
	if err := obsFlags.Start(obs.RunConfig{Cmd: "nmrepro", ScenarioID: spec.ID(), Seed: spec.Seed, Workers: spec.Game.Workers}); err != nil {
		return err
	}

	cfg := spec.ExperimentsConfig()
	if err := cfg.Validate(); err != nil {
		return cli.Invalid(err)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	switch *experiment {
	case "attacks":
		return runAttackSweep(ctx, cfg)
	case "fleet":
		return runFleetRepro(ctx, spec, cfg)
	}

	state := reproState{ScenarioID: spec.ID()}
	if err := ck.Guard(); err != nil {
		return err
	}
	if ck.Path != "" && checkpoint.Exists(ck.Path) {
		if err := checkpoint.Load(ck.Path, "repro-run", &state); err != nil {
			return err
		}
		if state.ScenarioID != spec.ID() {
			return fmt.Errorf("checkpoint was taken for scenario %s, current spec is %s: %w", state.ScenarioID, spec.ID(), checkpoint.ErrIncompatible)
		}
	}
	save := func() error {
		if ck.Path == "" {
			return nil
		}
		return checkpoint.Save(ck.Path, "repro-run", &state)
	}

	want := func(id string) bool { return *experiment == "all" || *experiment == id }
	if want("fig3") {
		fmt.Println("== Figure 3: prediction WITHOUT considering net metering ==")
		if state.F3 == nil {
			if state.F3, err = experiments.Fig3(ctx, cfg); err != nil {
				return err
			}
			if err := save(); err != nil {
				return err
			}
		}
		if err := renderPrediction(state.F3, "fig3", 1.4700); err != nil {
			return err
		}
	}
	if want("fig4") {
		fmt.Println("== Figure 4: prediction considering net metering ==")
		if state.F4 == nil {
			if state.F4, err = experiments.Fig4(ctx, cfg); err != nil {
				return err
			}
			if err := save(); err != nil {
				return err
			}
		}
		if err := renderPrediction(state.F4, "fig4", 1.3986); err != nil {
			return err
		}
	}
	if want("fig5") {
		fmt.Println("== Figure 5: zero-price cyberattack ==")
		if state.F5 == nil {
			if state.F5, err = experiments.Fig5(ctx, cfg); err != nil {
				return err
			}
			if err := save(); err != nil {
				return err
			}
		}
		f5 := state.F5
		if err := experiments.RenderChart(os.Stdout, "guideline price ($/unit)",
			[]string{"published", "manipulated"}, f5.Published, f5.Manipulated); err != nil {
			return err
		}
		if err := experiments.RenderChart(os.Stdout, "attacked community load (kW)",
			[]string{"load"}, f5.AttackedLoad); err != nil {
			return err
		}
		fmt.Printf("attacked PAR = %.4f (paper 1.9037); peak at slot %d (paper 16-17)\n\n", f5.PAR, f5.PeakSlot)
		if err := saveCSV("fig5.csv", []string{"slot", "published", "manipulated", "load"},
			f5.Published, f5.Manipulated, f5.AttackedLoad); err != nil {
			return err
		}
	}
	if want("fig6") {
		fmt.Println("== Figure 6: 48h observation accuracy ==")
		if state.F6 == nil {
			if state.F6, err = experiments.Fig6(ctx, cfg); err != nil {
				return err
			}
			if err := save(); err != nil {
				return err
			}
		}
		f6 := state.F6
		if err := experiments.RenderChart(os.Stdout, "cumulative observation accuracy",
			[]string{"net-metering-aware", "nm-blind"},
			timeseries.Series(f6.AwareBySlot), timeseries.Series(f6.BlindBySlot)); err != nil {
			return err
		}
		fmt.Printf("aware accuracy = %.2f%% (paper 95.14%%); blind = %.2f%% (paper 65.95%%)\n\n",
			100*f6.AwareAccuracy, 100*f6.BlindAccuracy)
		if err := saveCSV("fig6.csv", []string{"slot", "aware", "blind"},
			timeseries.Series(f6.AwareBySlot), timeseries.Series(f6.BlindBySlot)); err != nil {
			return err
		}
	}
	if want("table1") {
		fmt.Println("== Table 1: detection comparison ==")
		if state.T1 == nil {
			if state.T1, err = experiments.Table1(ctx, cfg); err != nil {
				return err
			}
			if err := save(); err != nil {
				return err
			}
		}
		t1 := state.T1
		fmt.Printf("%-24s %10s %12s %12s\n", "technique", "PAR", "inspections", "labor(norm)")
		for _, row := range []experiments.Table1Row{t1.NoDetection, t1.Blind, t1.Aware} {
			fmt.Printf("%-24s %10.4f %12d %12.4f\n", row.Technique, row.PAR, row.Inspections, row.LaborCost)
		}
		fmt.Printf("(paper: 1.6509 / 1.5422 / 1.4112; labor 1 vs 1.0067)\n\n")
	}

	if *experiment == "ablations" {
		return runAblations(ctx, cfg)
	}
	if *experiment != "all" {
		return nil
	}

	f3, f4, f5, f6, t1 := state.F3, state.F4, state.F5, state.F6, state.T1
	fmt.Println("== Headline comparison against the paper ==")
	h := experiments.ComputeHeadline(f3, f4, f5, f6, t1)
	fmt.Println(h)

	rep := &experiments.Report{
		Config: cfg, Fig3: f3, Fig4: f4, Fig5: f5, Fig6: f6, Table1: t1,
		Headline: h, Generated: time.Now(),
	}
	if *reportPath != "" {
		if err := cli.WriteFile(*reportPath, rep.Render); err != nil {
			return err
		}
		fmt.Printf("\nreport written to %s\n", *reportPath)
	}
	if *jsonPath != "" {
		if err := cli.WriteFile(*jsonPath, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("\nJSON report written to %s\n", *jsonPath)
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
	return nil
}

// runFleetRepro runs the multi-community fleet experiment: the scenario's
// world replicated across the fleet width, monitored with the aware
// detector, aggregated per community plus rollup.
func runFleetRepro(ctx context.Context, spec scenario.Spec, cfg experiments.Config) error {
	communities := spec.FleetCommunities()
	fmt.Printf("== Fleet: %d communities x %d meters, %d monitored days ==\n",
		communities, cfg.N, cfg.MonitorDays)
	rep, err := experiments.Fleet(ctx, cfg, communities, fleet.DetectorAware, *fleetW)
	if err != nil {
		return err
	}
	if err := rep.Render(os.Stdout); err != nil || *jsonPath == "" {
		return err
	}
	if err := cli.WriteFile(*jsonPath, rep.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("\nJSON fleet report written to %s\n", *jsonPath)
	return nil
}

// runAttackSweep runs the detection-accuracy-vs-archetype sweep with the
// NM-aware detector enforcing.
func runAttackSweep(ctx context.Context, cfg experiments.Config) error {
	fmt.Printf("== Attack archetypes: N=%d, %d monitored days, NM-aware detector ==\n",
		cfg.N, cfg.MonitorDays)
	sweep, err := experiments.AttackSweep(ctx, cfg)
	if err != nil {
		return err
	}
	if err := sweep.Render(os.Stdout); err != nil || *jsonPath == "" {
		return err
	}
	if err := cli.WriteFile(*jsonPath, sweep.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("\nJSON attack-sweep report written to %s\n", *jsonPath)
	return nil
}

func runAblations(ctx context.Context, cfg experiments.Config) error {
	fmt.Println("== Ablation: POMDP policy solver ==")
	solverRows, err := experiments.AblationSolver(ctx, cfg)
	if err != nil {
		return err
	}
	experiments.RenderSolverAblation(os.Stdout, solverRows)

	fmt.Println("\n== Ablation: forecaster kernel ==")
	kernelRows, err := experiments.AblationKernel(ctx, cfg)
	if err != nil {
		return err
	}
	experiments.RenderKernelAblation(os.Stdout, kernelRows)

	fmt.Println("\n== Ablation: PV-forecast noise vs channel quality ==")
	noiseRows, err := experiments.AblationForecastNoise(ctx, cfg, []float64{0, 0.02, 0.05, 0.1, 0.2})
	if err != nil {
		return err
	}
	experiments.RenderForecastNoiseAblation(os.Stdout, noiseRows)

	fmt.Println("\n== Ablation: flag threshold τ ==")
	tauRows, err := experiments.AblationTau(ctx, cfg, []float64{0.25, 0.5, 1.0, 1.5, 2.5})
	if err != nil {
		return err
	}
	experiments.RenderTauAblation(os.Stdout, tauRows)

	fmt.Println("\n== Ablation: net-metering sell-back divisor W ==")
	sellRows, err := experiments.AblationSellBack(ctx, cfg, []float64{1, 1.5, 2, 3, 5})
	if err != nil {
		return err
	}
	experiments.RenderSellBackAblation(os.Stdout, sellRows)

	fmt.Println("\n== Ablation: attack payloads ([8]'s PAR and bill attacks) ==")
	atkRows, err := experiments.AblationAttacks(ctx, cfg)
	if err != nil {
		return err
	}
	experiments.RenderAttackAblation(os.Stdout, atkRows)

	fmt.Println("\n== Ablation: zero-window position (the attacker's optimization) ==")
	winRows, err := experiments.AblationAttackWindow(ctx, cfg, []int{2, 8, 12, 16, 20})
	if err != nil {
		return err
	}
	experiments.RenderWindowSweep(os.Stdout, winRows)

	fmt.Println("\n== Ablation: battery storage contribution ==")
	battRows, err := experiments.AblationBattery(ctx, cfg)
	if err != nil {
		return err
	}
	experiments.RenderBatteryAblation(os.Stdout, battRows)

	fmt.Println("\n== Extension: meter-side price filter (package mitigate) ==")
	mit, err := experiments.Mitigation(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("clean PAR %.4f | attacked %.4f | filtered %.4f (%d slots clamped)\n",
		mit.CleanPAR, mit.AttackedPAR, mit.FilteredPAR, mit.ClampedSlots)
	return nil
}

func renderPrediction(r *experiments.PredictionResult, id string, paperPAR float64) error {
	if err := experiments.RenderChart(os.Stdout, "guideline price ($/unit)",
		[]string{"received", "predicted"}, r.Received, r.Predicted); err != nil {
		return err
	}
	if err := experiments.RenderChart(os.Stdout, "predicted community load (kW)",
		[]string{"load"}, r.PredictedLoad); err != nil {
		return err
	}
	fmt.Printf("predicted-load PAR = %.4f (paper %.4f); price RMSE = %.5f\n\n", r.PAR, paperPAR, r.PriceRMSE)
	return saveCSV(id+".csv", []string{"slot", "received", "predicted", "load"},
		r.Received, r.Predicted, r.PredictedLoad)
}

// saveCSV writes the series into -csv DIR, if one was given.
func saveCSV(name string, header []string, series ...timeseries.Series) error {
	if *csvDir == "" {
		return nil
	}
	return cli.WriteFile(filepath.Join(*csvDir, name), func(w io.Writer) error {
		return experiments.WriteCSV(w, header, series...)
	})
}
