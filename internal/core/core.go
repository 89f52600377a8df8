// Package core assembles the paper's contribution into one system: the
// net-metering-aware smart home pricing cyberattack detection pipeline of
// Figure 2.
//
// A System owns a simulated community (package community) and two fully
// constructed detector variants:
//
//   - the net-metering-aware detector (this paper): G(p, V, D) price
//     forecasting + Algorithm-1 load prediction + POMDP long-term monitoring
//     calibrated against the NM-aware observation channel;
//   - the NM-blind baseline ([7]/[8]): price-only SVR forecasting + the
//     no-PV/no-battery community model + the same POMDP machinery calibrated
//     against its (noisier) channel.
//
// Construction performs the entire offline phase end to end: bootstrap
// history, train the SVR forecasters, calibrate the per-meter deviation
// channels, build the POMDP ⟨S, O, A, T, R, Ω⟩, and solve the policy.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nmdetect/internal/attack"
	"nmdetect/internal/community"
	"nmdetect/internal/detect"
	"nmdetect/internal/forecast"
	"nmdetect/internal/metrics"
	"nmdetect/internal/obs"
	"nmdetect/internal/pomdp"
	"nmdetect/internal/timeseries"
)

// PolicySolver selects the POMDP solution method.
type PolicySolver string

// Available solvers.
const (
	// SolverPBVI is point-based value iteration — the faithful long-term
	// detection solver.
	SolverPBVI PolicySolver = "pbvi"
	// SolverQMDP is the fast QMDP approximation (ablation baseline).
	SolverQMDP PolicySolver = "qmdp"
	// SolverThreshold is a myopic expected-state threshold (ablation).
	SolverThreshold PolicySolver = "threshold"
)

// Options configures NewSystem.
type Options struct {
	// Community is the simulation configuration.
	Community community.Config
	// BootstrapDays is the clean history length the forecasters train on.
	BootstrapDays int
	// BaselineDays is the number of clean days used to learn each kit's
	// per-meter baseline correction.
	BaselineDays int
	// Forecast configures both SVR forecasters.
	Forecast forecast.Options
	// FlagTau is the per-meter deviation threshold (kW).
	FlagTau float64
	// DeltaPAR is the single-event threshold δ_P.
	DeltaPAR float64
	// Attack is the price manipulation used for channel calibration and as
	// the campaign payload.
	Attack attack.Attack
	// HackProb, BatchLo, BatchHi parameterize the campaign dynamics the
	// POMDP is trained against.
	HackProb         float64
	BatchLo, BatchHi int
	// StrikeSlots, when non-empty, switches campaigns built by NewCampaign
	// to coordinated timing: a batch is compromised exactly at each listed
	// day slot instead of by the Bernoulli process. The POMDP is still
	// trained against the stochastic dynamics — the coordinated attacker is
	// an off-model adversary.
	StrikeSlots []int
	// CalibFrac is the hacked fraction used for channel calibration.
	CalibFrac float64
	// Solver picks the POMDP policy solver.
	Solver PolicySolver
}

// DefaultOptions mirrors the paper's setup for a community of n meters.
func DefaultOptions(n int, seed uint64) Options {
	return Options{
		Community:     community.DefaultConfig(n, seed),
		BootstrapDays: 6,
		BaselineDays:  2,
		Forecast:      forecast.DefaultOptions(),
		FlagTau:       0.5,
		DeltaPAR:      0.05,
		Attack:        attack.ZeroWindow{From: 16, To: 17},
		// Campaign dynamics: a batchy, slow intrusion (one strike attempt
		// every ~10 slots compromising a few percent of the fleet) — fast
		// enough to sweep through several POMDP states within the 48 h
		// window, slow enough that states persist across the load-response
		// observation lag.
		HackProb:  0.10,
		BatchLo:   max(1, n/20),
		BatchHi:   max(2, n/8),
		CalibFrac: 0.4,
		Solver:    SolverPBVI,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if err := o.Community.Validate(); err != nil {
		return err
	}
	if o.BootstrapDays < o.Forecast.LagDays+1 {
		return fmt.Errorf("core: bootstrap days %d insufficient for %d lag days", o.BootstrapDays, o.Forecast.LagDays)
	}
	if o.BaselineDays < 1 {
		return fmt.Errorf("core: baseline days %d must be positive", o.BaselineDays)
	}
	if o.FlagTau <= 0 || o.DeltaPAR <= 0 {
		return errors.New("core: thresholds must be positive")
	}
	// NaN passes every ordered comparison above (NaN <= 0 is false), so
	// finiteness needs its own check.
	for _, v := range []float64{o.FlagTau, o.DeltaPAR, o.HackProb, o.CalibFrac} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("core: non-finite option")
		}
	}
	if o.Attack == nil {
		return errors.New("core: nil attack")
	}
	if o.CalibFrac <= 0 || o.CalibFrac >= 1 {
		return fmt.Errorf("core: calibration fraction %v out of (0,1)", o.CalibFrac)
	}
	for _, s := range o.StrikeSlots {
		if s < 0 || s > 23 {
			return fmt.Errorf("core: strike slot %d out of [0,23]", s)
		}
	}
	switch o.Solver {
	case SolverPBVI, SolverQMDP, SolverThreshold:
	default:
		return fmt.Errorf("core: unknown solver %q", o.Solver)
	}
	return nil
}

// System is the assembled pipeline.
type System struct {
	// Engine is the simulated world (net metering deployed).
	Engine *community.Engine
	// Aware is the net-metering-aware detector kit.
	Aware *community.DetectorKit
	// Blind is the NM-blind baseline kit.
	Blind *community.DetectorKit
	// Buckets is the shared state/observation quantizer.
	Buckets detect.Bucketizer
	// Channel rates measured during calibration, for diagnostics.
	AwareFP, AwareFN, BlindFP, BlindFN float64

	opts Options
}

// NewSystem runs the full offline phase and returns a ready pipeline. The
// context cancels the bootstrap simulation, baseline learning, channel
// calibration and POMDP policy solves; a nil ctx never cancels.
func NewSystem(ctx context.Context, opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	engine, err := community.NewEngine(opts.Community)
	if err != nil {
		return nil, err
	}
	// Stage spans over the sequential offline pipeline: ended explicitly at
	// each stage boundary rather than deferred, so the event stream shows
	// where a long system build spends its time.
	sink := obs.From(ctx)
	end := sink.Span("core.bootstrap")
	if err := engine.Bootstrap(ctx, opts.BootstrapDays, true); err != nil {
		return nil, err
	}
	end()

	end = sink.Span("core.train_forecasters")
	fAware, err := forecast.Train(engine.History(), forecast.ModeNetMeteringAware, opts.Forecast)
	if err != nil {
		return nil, err
	}
	fBlind, err := forecast.Train(engine.History(), forecast.ModePriceOnly, opts.Forecast)
	if err != nil {
		return nil, err
	}
	end()

	sys := &System{
		Engine: engine,
		Aware:  &community.DetectorKit{Name: "net-metering-aware", NetMetering: true, Forecaster: fAware, FlagTau: opts.FlagTau},
		Blind:  &community.DetectorKit{Name: "nm-blind", NetMetering: false, Forecaster: fBlind, FlagTau: opts.FlagTau},
		opts:   opts,
	}

	// Baseline learning: both kits observe the same clean days, recording
	// their systematic per-meter expectation errors.
	end = sink.Span("core.learn_baselines")
	if err := engine.LearnBaselines(ctx, opts.BaselineDays, sys.Aware, sys.Blind); err != nil {
		return nil, fmt.Errorf("core: baseline learning: %w", err)
	}
	end()

	// Strategic attackers probe the detector before the campaign starts —
	// Esmalifalak et al.'s zero-sum loop. Tuning runs against the aware
	// kit's channel and precedes calibration, so the channel rates below
	// describe the payload the campaign will actually run. Tune draws no
	// randomness and AttackProbe is side-effect-free, so resumed runs
	// re-tune to the identical payload.
	if tun, ok := opts.Attack.(attack.Tunable); ok {
		end = sink.Span("core.tune_attacker")
		probe, err := engine.AttackProbe(ctx, sys.Aware)
		if err != nil {
			return nil, fmt.Errorf("core: attacker probe: %w", err)
		}
		if _, err := tun.Tune(probe); err != nil {
			return nil, fmt.Errorf("core: attacker tuning: %w", err)
		}
		end()
	}

	end = sink.Span("core.calibrate")
	sys.AwareFP, sys.AwareFN, err = engine.ChannelRates(ctx, sys.Aware, opts.CalibFrac, opts.Attack)
	if err != nil {
		return nil, fmt.Errorf("core: aware channel calibration: %w", err)
	}
	sys.Aware.FP, sys.Aware.FN = sys.AwareFP, sys.AwareFN
	sys.BlindFP, sys.BlindFN, err = engine.ChannelRates(ctx, sys.Blind, opts.CalibFrac, opts.Attack)
	if err != nil {
		return nil, fmt.Errorf("core: blind channel calibration: %w", err)
	}
	sys.Blind.FP, sys.Blind.FN = sys.BlindFP, sys.BlindFN
	end()

	params := detect.DefaultModelParams(opts.Community.N, sys.AwareFP, sys.AwareFN)
	params.HackProb = opts.HackProb
	params.BatchLo, params.BatchHi = opts.BatchLo, opts.BatchHi
	sys.Buckets = params.Buckets

	end = sink.Span("core.solve_policy")
	sys.Aware.LongTerm, err = sys.buildLongTerm(ctx, params, sys.AwareFP, sys.AwareFN)
	if err != nil {
		return nil, err
	}
	sys.Blind.LongTerm, err = sys.buildLongTerm(ctx, params, sys.BlindFP, sys.BlindFN)
	if err != nil {
		return nil, err
	}
	end()
	return sys, nil
}

func (s *System) buildLongTerm(ctx context.Context, base detect.ModelParams, fp, fn float64) (*detect.LongTerm, error) {
	params := base
	params.FalsePos, params.FalseNeg = fp, fn
	model, err := detect.BuildModel(params)
	if err != nil {
		return nil, err
	}
	var policy pomdp.Policy
	switch s.opts.Solver {
	case SolverPBVI:
		policy, err = pomdp.SolvePBVI(ctx, model)
	case SolverQMDP:
		policy, err = pomdp.SolveQMDP(ctx, model, 1e-9, 5000)
	case SolverThreshold:
		policy = pomdp.ThresholdPolicy{
			InspectAction:  detect.ActionInspect,
			ContinueAction: detect.ActionContinue,
			Threshold:      1.0,
		}
	}
	if err != nil {
		return nil, err
	}
	return detect.NewLongTerm(model, policy, params.Buckets)
}

// NewCampaign builds a fresh attack campaign with the system's configured
// dynamics, payload and (when set) coordinated strike timing.
func (s *System) NewCampaign() (*attack.Campaign, error) {
	camp, err := attack.NewCampaign(s.opts.Community.N, s.opts.HackProb, s.opts.BatchLo, s.opts.BatchHi, s.opts.Attack)
	if err != nil {
		return nil, err
	}
	if len(s.opts.StrikeSlots) > 0 {
		camp.StrikeSlots = append([]int(nil), s.opts.StrikeSlots...)
	}
	return camp, nil
}

// MonitorDays runs `days` consecutive monitored days with the given kit and
// campaign; enforce controls whether inspect actions repair the fleet. The
// context is checked before every day in addition to the per-solve
// granularity inside; the days completed before cancellation are discarded.
// A thin wrapper over a checkpoint-free Runner.
func (s *System) MonitorDays(ctx context.Context, kit *community.DetectorKit, camp *attack.Campaign, days int, enforce bool) ([]*community.MonitorDayResult, error) {
	r, err := s.NewRunner(kit, camp, enforce, "", 1)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, days)
}

// ObservationAccuracy is the Figure-6 metric: the fraction of monitored
// slots where the detector's state estimate (the POMDP's MAP belief, which
// fuses the slot's observation with the campaign dynamics) matches the true
// hacked-count bucket. The bucket slices share a shape by construction, so
// the metrics error cannot fire on MonitorDays output.
func ObservationAccuracy(results []*community.MonitorDayResult) float64 {
	var obs, truth []int
	for _, r := range results {
		obs = append(obs, r.BeliefBucket...)
		truth = append(truth, r.TrueBucket...)
	}
	return metrics.Must(metrics.Accuracy(obs, truth))
}

// RawObservationAccuracy scores the raw (pre-belief) bucketed observations
// against the truth — the ablation counterpart of ObservationAccuracy.
func RawObservationAccuracy(results []*community.MonitorDayResult) float64 {
	var obs, truth []int
	for _, r := range results {
		obs = append(obs, r.ObsBucket...)
		truth = append(truth, r.TrueBucket...)
	}
	return metrics.Must(metrics.Accuracy(obs, truth))
}

// RealizedPAR computes the PAR of the realized community energy load
// Lₕ = Σₙ lₙʰ over the monitored window (the paper's Table 1 metric).
func RealizedPAR(results []*community.MonitorDayResult) float64 {
	var load timeseries.Series
	for _, r := range results {
		load = append(load, r.Load...)
	}
	return load.PAR()
}

// TotalInspections sums the inspect actions across the monitored window.
func TotalInspections(results []*community.MonitorDayResult) int {
	n := 0
	for _, r := range results {
		for _, a := range r.Actions {
			if a == detect.ActionInspect {
				n++
			}
		}
	}
	return n
}

// DetectionDelays measures response latency: for every intrusion episode
// (a maximal run of slots with a non-zero true hacked count), the number of
// slots from the episode's start until the first inspect action within it.
// Episodes never answered by an inspection report a delay of −1. The mean of
// the non-negative delays is returned alongside the per-episode list (NaN
// when no episode was answered).
func DetectionDelays(results []*community.MonitorDayResult) (delays []int, mean float64) {
	inEpisode := false
	start, slot := 0, 0
	answered := false
	flush := func() {
		if !inEpisode {
			return
		}
		if !answered {
			delays = append(delays, -1)
		}
		inEpisode = false
	}
	for _, r := range results {
		for h := range r.Actions {
			hacked := r.TrueHacked[h] > 0
			switch {
			case hacked && !inEpisode:
				inEpisode, answered, start = true, false, slot
			case !hacked:
				flush()
			}
			if inEpisode && !answered && r.Actions[h] == detect.ActionInspect {
				delays = append(delays, slot-start)
				answered = true
			}
			slot++
		}
	}
	flush()
	sum, n := 0, 0
	for _, d := range delays {
		if d >= 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return delays, math.NaN()
	}
	return delays, float64(sum) / float64(n)
}
