// Package experiments regenerates every figure and table of the paper's
// evaluation (Section 5). Each experiment is a pure function of a seeded
// configuration, returning structured results the harness renders as ASCII
// charts, CSV files and comparison rows against the paper's reported values.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Fig3   — price prediction WITHOUT considering net metering + its load
//	Fig4   — price prediction WITH net metering + its load
//	Fig5   — the zero-price attack and the resulting load peak
//	Fig6   — 48 h observation accuracy, NM-aware vs NM-blind
//	Table1 — PAR and labor cost: no detection / NM-blind / NM-aware
package experiments

import (
	"context"
	"fmt"

	"nmdetect/internal/attack"
	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/faultinject"
	"nmdetect/internal/forecast"
	"nmdetect/internal/loadpred"
	"nmdetect/internal/metrics"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/timeseries"
)

// Config scales the experiments. The paper's setting is N=500; tests use
// smaller communities for speed.
type Config struct {
	// N is the community size.
	N int
	// Seed drives every stochastic component.
	Seed uint64
	// BootstrapDays is the training-history length.
	BootstrapDays int
	// GameSweeps is the best-response sweep budget per game solve.
	GameSweeps int
	// MonitorDays is the long-term monitoring window (2 days = 48 h).
	MonitorDays int
	// Solver picks the POMDP policy solver.
	Solver core.PolicySolver
	// Workers is the engine-wide worker budget (community.Config.Workers):
	// 0 uses every core, 1 runs sequentially. Never affects results.
	Workers int
	// JacobiBlock is the game solver's block-Jacobi partition size
	// (community.Config.GameJacobiBlock). 0 keeps the sequential
	// Gauss-Seidel semantics the recorded results were produced with.
	JacobiBlock int
	// Shards is the hierarchical-solve shard count (community.Config.Shards).
	// <= 1 keeps the flat solver — the semantics the recorded results were
	// produced with; values > 1 solve shard fixed points coupled only by
	// aggregate trading.
	Shards int

	// The remaining fields are zero-is-default overrides so a full scenario
	// spec (package scenario) can flow through the figure harness without
	// changing the recorded seed-42 outputs: a zero value selects the same
	// default the harness always used.

	// FlagTau overrides the per-meter deviation threshold (kW); 0 keeps the
	// core default.
	FlagTau float64
	// DeltaPAR overrides the single-event threshold δ_P; 0 keeps the default.
	DeltaPAR float64
	// CalibFrac overrides the channel-calibration hacked fraction; 0 keeps
	// the default.
	CalibFrac float64
	// SellBackW overrides the tariff sell-back divisor W; 0 keeps the
	// default (1.5).
	SellBackW float64
	// SolarForecastSigma overrides the day-ahead PV forecast noise. The
	// default is already 0 (exact forecasts), so any positive value is an
	// override and 0 is a no-op.
	SolarForecastSigma float64
	// MeasurementNoise overrides the per-meter measurement noise (kW).
	// 0 keeps the community default (0.05); a negative value selects exactly
	// zero noise (the only non-zero-default knob, documented here and in
	// DESIGN.md).
	MeasurementNoise float64
	// HackProb overrides the campaign strike probability; 0 keeps the
	// default.
	HackProb float64
	// BatchLo and BatchHi override the campaign batch-size range; 0 keeps
	// the defaults.
	BatchLo, BatchHi int
	// Attack overrides the manipulation payload; nil keeps the default
	// zero-price window 16:00–17:00.
	Attack attack.Attack
	// StrikeSlots switches campaigns to coordinated timing (one batch per
	// listed day slot); nil keeps the stochastic process.
	StrikeSlots []int
	// Faults injects deterministic data-plane faults (package faultinject)
	// into the simulated world. The zero value keeps the fault-free engine —
	// recorded outputs are untouched.
	Faults faultinject.Config
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		N:             500,
		Seed:          42,
		BootstrapDays: 6,
		GameSweeps:    3,
		MonitorDays:   2,
		Solver:        core.SolverPBVI,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 3 {
		return fmt.Errorf("experiments: community size %d too small", c.N)
	}
	if c.BootstrapDays < 3 {
		return fmt.Errorf("experiments: need at least 3 bootstrap days, got %d", c.BootstrapDays)
	}
	if c.GameSweeps < 1 || c.MonitorDays < 1 {
		return fmt.Errorf("experiments: non-positive budget")
	}
	if c.Workers < 0 || c.JacobiBlock < 0 || c.Shards < 0 {
		return fmt.Errorf("experiments: negative parallelism knob")
	}
	if c.FlagTau < 0 || c.DeltaPAR < 0 || c.SolarForecastSigma < 0 {
		return fmt.Errorf("experiments: negative detector/noise override")
	}
	if c.CalibFrac < 0 || c.CalibFrac >= 1 {
		return fmt.Errorf("experiments: calibration fraction %v out of [0,1)", c.CalibFrac)
	}
	if c.SellBackW != 0 && c.SellBackW < 1 {
		return fmt.Errorf("experiments: sell-back divisor W=%v must be >= 1", c.SellBackW)
	}
	if c.BatchLo < 0 || c.BatchHi < 0 {
		return fmt.Errorf("experiments: negative campaign batch override")
	}
	if c.HackProb < 0 || c.HackProb > 1 {
		return fmt.Errorf("experiments: hack probability %v out of [0,1]", c.HackProb)
	}
	for _, s := range c.StrikeSlots {
		if s < 0 || s > 23 {
			return fmt.Errorf("experiments: strike slot %d out of [0,23]", s)
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// options lowers the experiment config into core options, applying every
// non-zero override.
func (c Config) options() core.Options {
	opts := core.DefaultOptions(c.N, c.Seed)
	opts.Community = communityConfig(c)
	opts.BootstrapDays = c.BootstrapDays
	opts.Solver = c.Solver
	if c.FlagTau > 0 {
		opts.FlagTau = c.FlagTau
	}
	if c.DeltaPAR > 0 {
		opts.DeltaPAR = c.DeltaPAR
	}
	if c.CalibFrac > 0 {
		opts.CalibFrac = c.CalibFrac
	}
	if c.HackProb > 0 {
		opts.HackProb = c.HackProb
	}
	if c.BatchLo > 0 {
		opts.BatchLo = c.BatchLo
	}
	if c.BatchHi > 0 {
		opts.BatchHi = c.BatchHi
	}
	if c.Attack != nil {
		opts.Attack = c.Attack
	}
	if len(c.StrikeSlots) > 0 {
		opts.StrikeSlots = append([]int(nil), c.StrikeSlots...)
	}
	return opts
}

// PredictionResult is shared by Fig3 and Fig4: a price prediction against the
// received price, and the load the community would schedule under the
// prediction.
type PredictionResult struct {
	// Received is the price the utility actually published (no attack).
	Received timeseries.Series
	// Predicted is the detector's price prediction.
	Predicted timeseries.Series
	// PredictedLoad is the community load scheduled under Predicted, in the
	// predictor's own community model.
	PredictedLoad timeseries.Series
	// PAR is the peak-to-average ratio of PredictedLoad.
	PAR float64
	// PriceRMSE measures prediction quality against the received price.
	PriceRMSE float64
}

// prediction runs the shared Fig3/Fig4 procedure for one forecaster mode.
func prediction(ctx context.Context, cfg Config, mode forecast.Mode) (*PredictionResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine, err := community.NewEngine(communityConfig(cfg))
	if err != nil {
		return nil, err
	}
	if err := engine.Bootstrap(ctx, cfg.BootstrapDays, true); err != nil {
		return nil, err
	}
	fc, err := forecast.Train(engine.History(), mode, forecast.DefaultOptions())
	if err != nil {
		return nil, err
	}
	env, err := flipDay(ctx, engine)
	if err != nil {
		return nil, err
	}
	var renFC timeseries.Series
	if mode == forecast.ModeNetMeteringAware {
		renFC = env.RenewableForecast
	}
	predicted, err := fc.PredictDay(engine.History(), renFC)
	if err != nil {
		return nil, err
	}

	netMetering := mode == forecast.ModeNetMeteringAware
	var pv [][]float64
	if netMetering {
		pv = env.PVForecast
	}
	gameCfg := engine.GameConfig(netMetering)
	pred, err := loadpred.New(engine.Customers(), gameCfg, pv, cfg.Seed^0xabcd)
	if err != nil {
		return nil, err
	}
	load, err := pred.PredictLoad(ctx, predicted)
	if err != nil {
		return nil, err
	}
	rmse, err := metrics.RMSE(predicted, env.Published)
	if err != nil {
		return nil, err
	}
	par, err := metrics.FinitePAR(load)
	if err != nil {
		return nil, fmt.Errorf("experiments: predicted load: %w", err)
	}
	return &PredictionResult{
		Received:      env.Published,
		Predicted:     predicted,
		PredictedLoad: load,
		PAR:           par,
		PriceRMSE:     rmse,
	}, nil
}

// Fig3 reproduces Figure 3: the price-only (NM-blind) prediction and the
// load it implies. The paper reports PAR = 1.4700 and a visible midday
// mismatch against the received price.
func Fig3(ctx context.Context, cfg Config) (*PredictionResult, error) {
	defer obs.From(ctx).Span("experiments.fig3")()
	return prediction(ctx, cfg, forecast.ModePriceOnly)
}

// Fig4 reproduces Figure 4: the net-metering-aware prediction. The paper
// reports PAR = 1.3986, 5.11% below Figure 3, and a visibly better price
// match.
func Fig4(ctx context.Context, cfg Config) (*PredictionResult, error) {
	defer obs.From(ctx).Span("experiments.fig4")()
	return prediction(ctx, cfg, forecast.ModeNetMeteringAware)
}

// Fig5Result captures the attack experiment.
type Fig5Result struct {
	// Published is the clean price; Manipulated zeroes 16:00–17:00.
	Published, Manipulated timeseries.Series
	// AttackedLoad is the realized community load when every meter receives
	// the manipulated price.
	AttackedLoad timeseries.Series
	// PAR of the attacked load (paper: 1.9037).
	PAR float64
	// PeakSlot is where the malicious peak lands (paper: 16:00–17:00).
	PeakSlot int
}

// Fig5 reproduces Figure 5: the guideline price is zeroed between 16:00 and
// 17:00 on every meter and the community piles its flexible load there.
func Fig5(ctx context.Context, cfg Config) (*Fig5Result, error) {
	defer obs.From(ctx).Span("experiments.fig5")()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine, err := community.NewEngine(communityConfig(cfg))
	if err != nil {
		return nil, err
	}
	if err := engine.Bootstrap(ctx, cfg.BootstrapDays, true); err != nil {
		return nil, err
	}
	env, err := engine.PrepareDay(ctx, true)
	if err != nil {
		return nil, err
	}
	var atk attack.Attack = attack.ZeroWindow{From: 16, To: 17}
	if cfg.Attack != nil {
		atk = cfg.Attack
	}
	camp, err := attack.NewCampaign(cfg.N, 0, 1, 1, atk)
	if err != nil {
		return nil, err
	}
	camp.HackNow(cfg.N, rng.New(cfg.Seed).Derive("fig5"))

	trace, err := engine.SimulateDay(ctx, env, camp, true, nil)
	if err != nil {
		return nil, err
	}
	load := trace.Load.Clone()
	_, peak := load.Max()
	par, err := metrics.FinitePAR(load)
	if err != nil {
		return nil, fmt.Errorf("experiments: attacked load: %w", err)
	}
	return &Fig5Result{
		Published:    env.Published,
		Manipulated:  atk.Apply(env.Published),
		AttackedLoad: load,
		PAR:          par,
		PeakSlot:     peak,
	}, nil
}

// flipDay advances the engine to an evaluation day whose weather breaks from
// the preceding day — Figure 3's scenario: a clear, high-solar day following
// cloudier ones, where the received guideline price carves a midday gap that
// only the renewable-aware predictor can anticipate. Intermediate days are
// simulated cleanly (extending the history); after a bounded search the
// current day is used regardless.
func flipDay(ctx context.Context, engine *community.Engine) (*community.DayEnvironment, error) {
	prev := solar.Weather(-1)
	for attempt := 0; attempt < 10; attempt++ {
		env, err := engine.PrepareDay(ctx, true)
		if err != nil {
			return nil, err
		}
		if env.Weather == solar.Clear && prev != solar.Clear && prev != solar.Weather(-1) {
			return env, nil
		}
		prev = env.Weather
		if attempt == 9 {
			return env, nil
		}
		if _, err := engine.SimulateDay(ctx, env, nil, true, nil); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("experiments: unreachable")
}

func communityConfig(cfg Config) community.Config {
	c := community.DefaultConfig(cfg.N, cfg.Seed)
	c.GameSweeps = cfg.GameSweeps
	c.Workers = cfg.Workers
	c.GameJacobiBlock = cfg.JacobiBlock
	c.Shards = cfg.Shards
	if cfg.SellBackW != 0 {
		c.Tariff.W = cfg.SellBackW
	}
	if cfg.SolarForecastSigma > 0 {
		c.SolarForecastSigma = cfg.SolarForecastSigma
	}
	if cfg.MeasurementNoise > 0 {
		c.MeasurementNoise = cfg.MeasurementNoise
	} else if cfg.MeasurementNoise < 0 {
		c.MeasurementNoise = 0
	}
	c.Faults = cfg.Faults
	return c
}
