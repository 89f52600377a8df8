package community

import (
	"context"
	"math"
	"strings"
	"testing"

	"nmdetect/internal/attack"
	"nmdetect/internal/detect"
	"nmdetect/internal/forecast"
	"nmdetect/internal/parallel"
	"nmdetect/internal/pomdp"
)

// testEngine builds a small, fast engine for integration tests.
func testEngine(t *testing.T, n int, seed uint64) *Engine {
	t.Helper()
	cfg := DefaultConfig(n, seed)
	cfg.GameSweeps = 2
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(10, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(0, 1)
	if err := bad.Validate(); err == nil {
		t.Error("zero community accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.MeasurementNoise = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative noise accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.GameSweeps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sweeps accepted")
	}
}

func TestBootstrapAccumulatesHistory(t *testing.T) {
	e := testEngine(t, 15, 42)
	if err := e.Bootstrap(context.Background(), 3, true); err != nil {
		t.Fatal(err)
	}
	if e.History().Len() != 72 {
		t.Fatalf("history length = %d", e.History().Len())
	}
	if e.Day() != 3 {
		t.Fatalf("day = %d", e.Day())
	}
	if err := e.History().Validate(); err != nil {
		t.Fatal(err)
	}
	// Demand history must be positive (the community always consumes).
	for i, d := range e.History().Demand {
		if d <= 0 {
			t.Fatalf("slot %d: demand %v", i, d)
		}
	}
}

func TestPrepareDayShapes(t *testing.T) {
	e := testEngine(t, 10, 7)
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.PV) != 10 || len(env.PVForecast) != 10 {
		t.Fatal("pv shapes wrong")
	}
	if len(env.Published) != 24 || len(env.Renewable) != 24 {
		t.Fatal("series shapes wrong")
	}
	for h, p := range env.Published {
		if p <= 0 {
			t.Fatalf("published price %v at %d", p, h)
		}
	}
	// Forecast must be zero exactly where generation is zero.
	for n := range env.PV {
		for h := range env.PV[n] {
			if (env.PV[n][h] == 0) != (env.PVForecast[n][h] == 0) {
				t.Fatalf("forecast support mismatch at meter %d slot %d", n, h)
			}
		}
	}
}

func TestSimulateDayCleanNoCampaign(t *testing.T) {
	e := testEngine(t, 12, 9)
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := e.SimulateDay(context.Background(), env, nil, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for h, c := range trace.TrueHacked {
		if c != 0 {
			t.Fatalf("hacked count %d at slot %d without campaign", c, h)
		}
	}
	if trace.AttackedMeter != nil {
		t.Fatal("attacked profiles computed without campaign")
	}
	// Realized differs from clean only by measurement noise.
	for n := range trace.CleanMeter {
		for h := 0; h < 24; h++ {
			if d := math.Abs(trace.RealizedMeter[n][h] - trace.CleanMeter[n][h]); d > 0.5 {
				t.Fatalf("meter %d slot %d: noise-only deviation %v", n, h, d)
			}
		}
	}
	if trace.Load.Sum() <= 0 {
		t.Fatal("no community consumption")
	}
}

func TestSimulateDayWithCampaign(t *testing.T) {
	e := testEngine(t, 12, 11)
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attack.NewCampaign(12, 1.0, 2, 2, attack.ZeroWindow{From: 16, To: 17})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := e.SimulateDay(context.Background(), env, camp, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Certain hacking: counts grow by 2 per hour until saturation.
	if trace.TrueHacked[0] != 2 || trace.TrueHacked[5] != 12 || trace.TrueHacked[23] != 12 {
		t.Fatalf("hacked counts = %v", trace.TrueHacked)
	}
	if trace.AttackedMeter == nil {
		t.Fatal("attacked profiles missing")
	}
}

func TestSimulateDayCampaignSizeMismatch(t *testing.T) {
	e := testEngine(t, 12, 11)
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attack.NewCampaign(5, 1, 1, 1, attack.None{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SimulateDay(context.Background(), env, camp, true, nil); err == nil {
		t.Fatal("mismatched campaign accepted")
	}
}

func TestInspectCallbackRepairs(t *testing.T) {
	e := testEngine(t, 12, 13)
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attack.NewCampaign(12, 1.0, 3, 3, attack.ZeroWindow{From: 16, To: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Inspect at slot 10.
	trace, err := e.SimulateDay(context.Background(), env, camp, true, func(h int, tr *DayTrace) (bool, error) {
		return h == 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.RepairedAt) != 1 || trace.RepairedAt[0] != 10 {
		t.Fatalf("RepairedAt = %v", trace.RepairedAt)
	}
	// Count resets after the repair, then the campaign re-compromises.
	if trace.TrueHacked[10] == 0 {
		t.Fatal("count should be recorded before repair")
	}
	if trace.TrueHacked[11] != 3 {
		t.Fatalf("post-repair count = %d, want fresh batch of 3", trace.TrueHacked[11])
	}
}

// buildKits boots an engine and assembles both detector variants.
func buildKits(t *testing.T, e *Engine) (aware, blind *DetectorKit) {
	t.Helper()
	if err := e.Bootstrap(context.Background(), 4, true); err != nil {
		t.Fatal(err)
	}
	fopts := forecast.DefaultOptions()
	fAware, err := forecast.Train(e.History(), forecast.ModeNetMeteringAware, fopts)
	if err != nil {
		t.Fatal(err)
	}
	fBlind, err := forecast.Train(e.History(), forecast.ModePriceOnly, fopts)
	if err != nil {
		t.Fatal(err)
	}
	aware = &DetectorKit{Name: "aware", NetMetering: true, Forecaster: fAware, FlagTau: 0.5}
	blind = &DetectorKit{Name: "blind", NetMetering: false, Forecaster: fBlind, FlagTau: 0.5}
	return aware, blind
}

func TestChannelRatesAwareBeatsBlind(t *testing.T) {
	e := testEngine(t, 20, 21)
	aware, blind := buildKits(t, e)
	atk := attack.ZeroWindow{From: 16, To: 17}

	fpA, fnA, err := e.ChannelRates(context.Background(), aware, 0.5, atk)
	if err != nil {
		t.Fatal(err)
	}
	fpB, fnB, err := e.ChannelRates(context.Background(), blind, 0.5, atk)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("aware fp=%.3f fn=%.3f; blind fp=%.3f fn=%.3f", fpA, fnA, fpB, fnB)
	// The NM-blind channel must be substantially noisier on false positives:
	// it mistakes PV exports and battery shifting for attack deviations.
	if fpA >= fpB {
		t.Fatalf("aware fp %v not below blind fp %v", fpA, fpB)
	}
	// And the engine must restore its state after calibration.
	if e.History().Len() != 4*24 {
		t.Fatalf("calibration perturbed history: %d", e.History().Len())
	}
	if e.Day() != 4 {
		t.Fatalf("calibration perturbed day: %d", e.Day())
	}
}

func TestChannelRatesValidation(t *testing.T) {
	e := testEngine(t, 10, 23)
	aware, _ := buildKits(t, e)
	if _, _, err := e.ChannelRates(context.Background(), aware, 0, attack.None{}); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, _, err := e.ChannelRates(context.Background(), aware, 1, attack.None{}); err == nil {
		t.Error("full fraction accepted")
	}
	bad := &DetectorKit{Name: "bad", FlagTau: 0.5}
	if _, _, err := e.ChannelRates(context.Background(), bad, 0.5, attack.None{}); err == nil {
		t.Error("kit without forecaster accepted")
	}
}

func TestMonitorDayEndToEnd(t *testing.T) {
	e := testEngine(t, 20, 31)
	aware, _ := buildKits(t, e)

	params := detect.DefaultModelParams(20, 0.05, 0.3)
	params.CalibSamples = 800
	model, err := detect.BuildModel(params)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := pomdp.SolveQMDP(context.Background(), model, 1e-8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := detect.NewLongTerm(model, policy, params.Buckets)
	if err != nil {
		t.Fatal(err)
	}
	aware.LongTerm = lt

	camp, err := attack.NewCampaign(20, 0.6, 2, 4, attack.ZeroWindow{From: 16, To: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.MonitorDay(context.Background(), aware, camp, params.Buckets, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flagged) != 24 || len(res.ObsBucket) != 24 || len(res.TrueBucket) != 24 || len(res.Actions) != 24 {
		t.Fatal("result shapes wrong")
	}
	if len(res.Load) != 24 || len(res.TrueHacked) != 24 {
		t.Fatal("per-slot load or hacked count missing")
	}
	// With certain growth and enforcement, at least one inspection fires.
	sawInspect := false
	for _, a := range res.Actions {
		if a == detect.ActionInspect {
			sawInspect = true
		}
	}
	if !sawInspect {
		t.Log("no inspection fired (acceptable for small community, but suspicious)")
	}
	// True buckets must mirror the true hacked counts.
	for h := 0; h < 24; h++ {
		if res.TrueBucket[h] != params.Buckets.Bucket(res.TrueHacked[h]) {
			t.Fatalf("true bucket mismatch at slot %d", h)
		}
	}
}

func TestMonitorDayStatePersistsAcrossDays(t *testing.T) {
	e := testEngine(t, 16, 61)
	aware, _ := buildKits(t, e)

	params := detect.DefaultModelParams(16, 0.02, 0.3)
	params.CalibSamples = 500
	model, err := detect.BuildModel(params)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := pomdp.SolveQMDP(context.Background(), model, 1e-8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	aware.LongTerm, err = detect.NewLongTerm(model, policy, params.Buckets)
	if err != nil {
		t.Fatal(err)
	}

	camp, err := attack.NewCampaign(16, 0.3, 1, 3, attack.ZeroWindow{From: 16, To: 17})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MonitorDay(context.Background(), aware, camp, params.Buckets, true); err != nil {
		t.Fatal(err)
	}
	stepsAfterDay1 := aware.LongTerm.Steps
	if stepsAfterDay1 != 24 {
		t.Fatalf("steps after day 1 = %d", stepsAfterDay1)
	}
	if _, err := e.MonitorDay(context.Background(), aware, camp, params.Buckets, true); err != nil {
		t.Fatal(err)
	}
	// The POMDP and the flagger carry across days: step counter accumulates.
	if aware.LongTerm.Steps != 48 {
		t.Fatalf("steps after day 2 = %d", aware.LongTerm.Steps)
	}
}

func TestMonitorDayRequiresLongTerm(t *testing.T) {
	e := testEngine(t, 10, 33)
	aware, _ := buildKits(t, e)
	buckets, _ := detect.NewBucketizer([]int{2})
	if _, err := e.MonitorDay(context.Background(), aware, nil, buckets, true); err == nil {
		t.Fatal("kit without long-term detector accepted")
	}
}

func TestSingleEventKitDetectsCommunityAttack(t *testing.T) {
	e := testEngine(t, 15, 35)
	aware, _ := buildKits(t, e)
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	se, err := e.SingleEventKit(aware, env, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	price, err := aware.PredictPrice(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aware.ExpectedProfiles(context.Background(), e, env, env.Published); err != nil {
		t.Fatal(err)
	}
	attacked := attack.ZeroWindow{From: 16, To: 17}.Apply(env.Published)
	res, err := se.Check(context.Background(), price, attacked)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Attack {
		t.Fatalf("community-wide zero-window attack not detected: %+v", res)
	}
}

func TestWeatherIsCommunityWide(t *testing.T) {
	// Mechanism note 4 (DESIGN.md): cloud cover is regional. On a day the
	// engine draws as overcast, EVERY PV household's generation must be
	// attenuated — per-household weather would average the swing away.
	cfg := DefaultConfig(30, 3)
	cfg.GameSweeps = 2
	cfg.Solar.WeatherProbs = []float64{0, 0, 1} // force overcast
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if env.Weather.String() != "overcast" {
		t.Fatalf("weather = %v", env.Weather)
	}
	for i, c := range e.Customers() {
		if !c.HasPV() {
			continue
		}
		// Overcast attenuation is 0.25; noon output must sit far below the
		// clear-sky level for every panel, not just on average.
		noon := env.PV[i][12]
		clearSky := 0.25 * c.Panel.CapacityKW * c.Panel.Orientation * 1.5 // generous bound
		if noon > clearSky {
			t.Fatalf("customer %d noon output %v exceeds overcast bound %v", i, noon, clearSky)
		}
	}
}

func TestDemandForecastBasis(t *testing.T) {
	// With the SVR demand basis enabled the engine must still run end to end
	// and publish positive prices, both during cold start (falls back to
	// yesterday's load) and after enough history accumulates.
	cfg := DefaultConfig(10, 55)
	cfg.GameSweeps = 2
	cfg.UseDemandForecast = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bootstrap(context.Background(), 5, true); err != nil {
		t.Fatal(err)
	}
	env, err := e.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	for h, p := range env.Published {
		if p <= 0 {
			t.Fatalf("slot %d price %v", h, p)
		}
	}
	// The forecast basis must differ from the naive one (different price):
	// rebuild the same world without the forecaster and compare.
	cfg2 := cfg
	cfg2.UseDemandForecast = false
	e2, err := NewEngine(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Bootstrap(context.Background(), 5, true); err != nil {
		t.Fatal(err)
	}
	env2, err := e2.PrepareDay(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for h := range env.Published {
		if env.Published[h] != env2.Published[h] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("demand forecaster had no effect on the published price")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		e := testEngine(t, 10, 77)
		if err := e.Bootstrap(context.Background(), 2, true); err != nil {
			t.Fatal(err)
		}
		return e.History().Demand
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("engine diverged at slot %d", i)
		}
	}
}

func TestEngineParallelismDoesNotChangeResults(t *testing.T) {
	// The engine's Workers knob (concurrent clean/attacked solves, parallel
	// PV generation, intra-block game fan-out) is a pure execution knob:
	// for a fixed seed and Jacobi block size every realized trace must be
	// bitwise identical whatever the worker budget.
	prev := parallel.SetLimit(8)
	defer parallel.SetLimit(prev)

	run := func(workers int) *DayTrace {
		t.Helper()
		cfg := DefaultConfig(8, 77)
		cfg.GameSweeps = 2
		cfg.Workers = workers
		cfg.GameJacobiBlock = 4
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		env, err := e.PrepareDay(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := attack.NewCampaign(8, 0.5, 1, 4, attack.ZeroWindow{From: 16, To: 17})
		if err != nil {
			t.Fatal(err)
		}
		trace, err := e.SimulateDay(context.Background(), env, camp, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}

	ref := run(1)
	for _, workers := range []int{4, 8} {
		got := run(workers)
		for h := 0; h < 24; h++ {
			if ref.Load[h] != got.Load[h] || ref.GridDemand[h] != got.GridDemand[h] {
				t.Fatalf("workers=%d slot %d: load/grid diverged", workers, h)
			}
			if ref.Env.Published[h] != got.Env.Published[h] ||
				ref.Env.Renewable[h] != got.Env.Renewable[h] {
				t.Fatalf("workers=%d slot %d: environment diverged", workers, h)
			}
		}
		for n := range ref.RealizedMeter {
			for h := 0; h < 24; h++ {
				if ref.RealizedMeter[n][h] != got.RealizedMeter[n][h] {
					t.Fatalf("workers=%d meter %d slot %d: realized measurement diverged", workers, n, h)
				}
				if ref.CleanMeter[n][h] != got.CleanMeter[n][h] ||
					ref.AttackedMeter[n][h] != got.AttackedMeter[n][h] {
					t.Fatalf("workers=%d meter %d slot %d: solve output diverged", workers, n, h)
				}
			}
		}
	}
}

func TestConfigValidateParallelKnobs(t *testing.T) {
	bad := DefaultConfig(10, 1)
	bad.Workers = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative workers accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.GameJacobiBlock = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative Jacobi block accepted")
	}
	// The hierarchical solver partitions customers into shards; a 1-customer
	// community has nothing to partition and used to panic in the shard
	// planner. Validation must route the error instead.
	bad = DefaultConfig(1, 1)
	bad.Shards = 4
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "at least 2 customers") {
		t.Errorf("1-customer hierarchical config: %v, want routed rejection", err)
	}
}
