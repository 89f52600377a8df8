package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"testing"

	"nmdetect/internal/attack"
	"nmdetect/internal/community"
	"nmdetect/internal/detect"
)

// smallOptions returns a fast configuration for integration tests.
func smallOptions(n int, seed uint64) Options {
	opts := DefaultOptions(n, seed)
	opts.Community.GameSweeps = 2
	opts.BootstrapDays = 4
	opts.Solver = SolverQMDP // fast in tests; PBVI covered separately
	return opts
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions(20, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Options){
		func(o *Options) { o.Community.N = 0 },
		func(o *Options) { o.BootstrapDays = 1 },
		func(o *Options) { o.FlagTau = 0 },
		func(o *Options) { o.DeltaPAR = 0 },
		func(o *Options) { o.Attack = nil },
		func(o *Options) { o.CalibFrac = 0 },
		func(o *Options) { o.CalibFrac = 1 },
		func(o *Options) { o.Solver = "magic" },
	}
	for i, mod := range cases {
		o := DefaultOptions(20, 1)
		mod(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNewSystemBuildsBothKits(t *testing.T) {
	sys, err := NewSystem(context.Background(), smallOptions(16, 42))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Aware == nil || sys.Blind == nil {
		t.Fatal("kits missing")
	}
	if sys.Aware.LongTerm == nil || sys.Blind.LongTerm == nil {
		t.Fatal("long-term detectors missing")
	}
	if !sys.Aware.NetMetering || sys.Blind.NetMetering {
		t.Fatal("kit models wrong")
	}
	// Calibration must find the blind channel noisier (more false flags).
	if sys.AwareFP >= sys.BlindFP {
		t.Fatalf("aware fp %v not below blind fp %v", sys.AwareFP, sys.BlindFP)
	}
	// Bootstrap (4) plus baseline-learning days (2).
	if sys.Engine.Day() != 6 {
		t.Fatalf("engine day = %d after bootstrap+baseline", sys.Engine.Day())
	}
}

func TestMonitorDaysAndMetrics(t *testing.T) {
	sys, err := NewSystem(context.Background(), smallOptions(16, 43))
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.MonitorDays(context.Background(), sys.Aware, camp, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d days", len(results))
	}
	acc := ObservationAccuracy(results)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	par := RealizedPAR(results)
	if par < 1 {
		t.Fatalf("PAR = %v", par)
	}
	if n := TotalInspections(results); n < 0 || n > 48 {
		t.Fatalf("inspections = %d", n)
	}
}

func TestMonitorDaysValidation(t *testing.T) {
	sys, err := NewSystem(context.Background(), smallOptions(12, 44))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MonitorDays(context.Background(), sys.Aware, nil, 0, true); err == nil {
		t.Fatal("zero days accepted")
	}
}

func TestThresholdSolverWorks(t *testing.T) {
	opts := smallOptions(12, 45)
	opts.Solver = SolverThreshold
	sys, err := NewSystem(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MonitorDays(context.Background(), sys.Blind, camp, 1, true); err != nil {
		t.Fatal(err)
	}
}

func TestPBVISolverWorks(t *testing.T) {
	opts := smallOptions(12, 46)
	opts.Solver = SolverPBVI
	sys, err := NewSystem(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MonitorDays(context.Background(), sys.Aware, camp, 1, true); err != nil {
		t.Fatal(err)
	}
}

// TestStoredDayDoesNotGrowWithMeters pins that the record a Runner keeps,
// checkpoints and serves for one day holds no per-meter field: one stepped
// day gob-encodes to about the same size at 8 and at 24 meters.
func TestStoredDayDoesNotGrowWithMeters(t *testing.T) {
	size := func(n int) int {
		sys, err := NewSystem(context.Background(), smallOptions(n, 48))
		if err != nil {
			t.Fatal(err)
		}
		camp, err := sys.NewCampaign()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.NewRunner(sys.Aware, camp, true, "", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.StepDay(context.Background()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r.Results()[0]); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	small, large := size(8), size(24)
	t.Logf("a stored day is %d B at 8 meters and %d B at 24", small, large)
	if d := large - small; d > 1024 || d < -1024 {
		t.Fatal("the stored day grows with the number of meters")
	}
}

func TestMetricHelpersOnSyntheticResults(t *testing.T) {
	mk := func(obs, truth []int, actions []int, demand []float64) *community.MonitorDayResult {
		return &community.MonitorDayResult{
			ObsBucket:    obs,
			BeliefBucket: obs,
			TrueBucket:   truth,
			Actions:      actions,
			Load:         demand,
		}
	}
	results := []*community.MonitorDayResult{
		mk([]int{0, 1}, []int{0, 2}, []int{detect.ActionContinue, detect.ActionInspect}, []float64{2, 0}),
		mk([]int{1, 1}, []int{1, 1}, []int{detect.ActionContinue, detect.ActionContinue}, []float64{4, 2}),
	}
	if acc := ObservationAccuracy(results); acc != 0.75 {
		t.Fatalf("accuracy = %v", acc)
	}
	if acc := RawObservationAccuracy(results); acc != 0.75 {
		t.Fatalf("raw accuracy = %v", acc)
	}
	if n := TotalInspections(results); n != 1 {
		t.Fatalf("inspections = %d", n)
	}
	// Load {2, 0, 4, 2}: peak 4, mean 2 → PAR 2.
	if par := RealizedPAR(results); par != 2 {
		t.Fatalf("PAR = %v", par)
	}
}

func TestDetectionDelays(t *testing.T) {
	mk := func(hacked []int, actions []int) *community.MonitorDayResult {
		return &community.MonitorDayResult{
			Actions:    actions,
			TrueHacked: hacked,
		}
	}
	cont, insp := detect.ActionContinue, detect.ActionInspect
	// Episode 1: slots 1-3 hacked, inspected at slot 3 → delay 2.
	// Episode 2: slots 6-7 hacked, never inspected → -1.
	results := []*community.MonitorDayResult{
		mk(
			[]int{0, 2, 3, 3, 0, 0, 4, 4},
			[]int{cont, cont, cont, insp, cont, cont, cont, cont},
		),
	}
	delays, mean := DetectionDelays(results)
	if len(delays) != 2 || delays[0] != 2 || delays[1] != -1 {
		t.Fatalf("delays = %v", delays)
	}
	if mean != 2 {
		t.Fatalf("mean = %v", mean)
	}

	// No episode answered → NaN mean.
	results = []*community.MonitorDayResult{
		mk([]int{1, 1}, []int{cont, cont}),
	}
	delays, mean = DetectionDelays(results)
	if len(delays) != 1 || delays[0] != -1 || !math.IsNaN(mean) {
		t.Fatalf("delays = %v, mean = %v", delays, mean)
	}

	// Immediate inspection → delay 0; episode spanning day boundary counts
	// in global slots.
	results = []*community.MonitorDayResult{
		mk([]int{0, 1}, []int{cont, insp}),
		mk([]int{1, 0}, []int{cont, cont}),
	}
	delays, mean = DetectionDelays(results)
	if len(delays) != 1 || delays[0] != 0 || mean != 0 {
		t.Fatalf("cross-day delays = %v, mean = %v", delays, mean)
	}
}

func TestNewCampaignMatchesOptions(t *testing.T) {
	sys, err := NewSystem(context.Background(), smallOptions(12, 47))
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if camp.N != 12 {
		t.Fatalf("campaign N = %d", camp.N)
	}
	if _, ok := camp.Attack.(attack.ZeroWindow); !ok {
		t.Fatalf("campaign attack = %T", camp.Attack)
	}
}
