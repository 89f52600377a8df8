package community

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nmdetect/internal/attack"
	"nmdetect/internal/detect"
	"nmdetect/internal/forecast"
	"nmdetect/internal/loadpred"
	"nmdetect/internal/meterstate"
	"nmdetect/internal/obs"
	"nmdetect/internal/timeseries"
)

// DetectorKit bundles one detection variant: a price forecaster, the
// community model it reasons with, the long-term POMDP detector, and the
// flagging threshold.
type DetectorKit struct {
	// Name labels the variant in reports ("net-metering-aware", ...).
	Name string
	// NetMetering is the community model the detector assumes. The paper's
	// point: the world has net metering; a detector with NetMetering=false
	// (the [7] baseline) expects the wrong per-meter profiles.
	NetMetering bool
	// Forecaster predicts the guideline price from history.
	Forecaster *forecast.Forecaster
	// LongTerm is the POMDP monitor (may be nil for single-event use only).
	LongTerm *detect.LongTerm
	// FlagTau is the per-meter running-mean deviation threshold in kW.
	FlagTau float64
	// FP and FN are the calibrated per-slot marginal channel error rates
	// (set by calibration; used to debias flagged counts online).
	FP, FN float64
	// Baseline is the per-meter, per-slot systematic deviation learned on
	// clean historical days (realized − expected). Subtracting it lets even
	// the NM-blind detector compensate for *recurring* patterns (a PV home
	// always exports at noon); what it cannot compensate is the day-to-day
	// weather swing, which only the NM-aware model tracks through the
	// renewable forecast — the crux of the paper.
	Baseline [][]float64

	flagger *detect.Flagger
}

// ensureFlagger builds the kit's persistent observation channel on first use
// (it survives across days so cumulative deviations keep their memory).
func (k *DetectorKit) ensureFlagger(n int) error {
	if k.flagger != nil && k.flagger.Tau == k.FlagTau && k.flagger.Size() == n {
		return nil
	}
	f, err := detect.NewFlagger(n, k.FlagTau)
	if err != nil {
		return err
	}
	k.flagger = f
	return nil
}

// KitState is a deep snapshot of a kit's mutable detection state — the
// persistent deviation channel and the POMDP belief — for checkpointing.
// Calibrated parameters (FP/FN, Baseline, FlagTau) live in the kit's
// configuration and are reproduced by the deterministic offline phase, so
// they are not part of the runtime state.
type KitState struct {
	// Flagger is the deviation channel state; Slots < 0 marks a kit whose
	// flagger has not been built yet.
	Flagger detect.FlaggerState
	// LongTerm is the POMDP monitor state; nil when the kit has none.
	LongTerm *detect.LongTermState
}

// State snapshots the kit's mutable detection state.
func (k *DetectorKit) State() KitState {
	st := KitState{Flagger: detect.FlaggerState{Slots: -1}}
	if k.flagger != nil {
		st.Flagger = k.flagger.State()
	}
	if k.LongTerm != nil {
		lt := k.LongTerm.State()
		st.LongTerm = &lt
	}
	return st
}

// RestoreState restores a snapshot taken with State. n is the fleet size the
// flagger must cover.
func (k *DetectorKit) RestoreState(st KitState, n int) error {
	if st.Flagger.Slots >= 0 {
		if err := k.ensureFlagger(n); err != nil {
			return err
		}
		if err := k.flagger.Restore(st.Flagger); err != nil {
			return fmt.Errorf("community: kit %q flagger: %w", k.Name, err)
		}
	} else {
		k.flagger = nil
	}
	if st.LongTerm != nil {
		if k.LongTerm == nil {
			return fmt.Errorf("community: kit %q snapshot has POMDP state but kit has no long-term detector", k.Name)
		}
		if err := k.LongTerm.Restore(*st.LongTerm); err != nil {
			return fmt.Errorf("community: kit %q long-term: %w", k.Name, err)
		}
	}
	return nil
}

// Validate checks the kit.
func (k *DetectorKit) Validate() error {
	if k.Forecaster == nil {
		return errors.New("community: detector kit has no forecaster")
	}
	if k.FlagTau <= 0 {
		return fmt.Errorf("community: flag threshold %v must be positive", k.FlagTau)
	}
	return nil
}

// PredictPrice runs the kit's guideline-price forecaster for the prepared
// day (the NM-aware mode consumes the environment's renewable forecast).
func (k *DetectorKit) PredictPrice(e *Engine, env *DayEnvironment) (timeseries.Series, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	var renFC timeseries.Series
	if k.Forecaster.Mode() == forecast.ModeNetMeteringAware {
		renFC = env.RenewableForecast
	}
	return k.Forecaster.PredictDay(e.History(), renFC)
}

// ExpectedProfiles derives the per-meter profiles the kit expects under the
// given guideline price: net flows under the kit's own community model. The
// long-term monitor passes the *published* price (the utility knows what it
// published; the open question is how meters respond), while single-event
// checks pass the *predicted* price. Must be called after PrepareDay (the
// NM-aware model uses the environment's per-meter renewable forecasts). The
// solve goes through the engine's day memo (Engine.solve), so without a
// Baseline the returned rows are shared with the engine: read them, never
// write them.
func (k *DetectorKit) ExpectedProfiles(ctx context.Context, e *Engine, env *DayEnvironment, price timeseries.Series) ([][]float64, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	var pv [][]float64
	if k.NetMetering {
		pv = env.PVForecast
	}
	res, err := e.solve(ctx, e.solveWS[0], k.NetMetering, price, pv)
	if err != nil {
		return nil, err
	}
	expected := meterFlows(res, k.NetMetering)
	if k.Baseline == nil {
		return expected, nil
	}
	// Apply the learned baseline correction.
	corrected := make([][]float64, len(expected))
	for n := range expected {
		corrected[n] = make([]float64, len(expected[n]))
		for h := range expected[n] {
			corrected[n][h] = expected[n][h] + k.Baseline[n][h%24]
		}
	}
	return corrected, nil
}

// LearnBaselines simulates `days` clean days and records, for every kit,
// each meter's average systematic deviation (realized − expected under the
// published price) as that kit's baseline correction — the "training on
// historical data" step of Section 4.2. All kits observe the same days, so
// their corrections are directly comparable. The engine's day counter and
// history advance, as with Bootstrap.
func (e *Engine) LearnBaselines(ctx context.Context, days int, kits ...*DetectorKit) error {
	if days < 1 {
		return fmt.Errorf("community: baseline days %d must be positive", days)
	}
	if len(kits) == 0 {
		return errors.New("community: no kits to train")
	}
	sums := make([][][]float64, len(kits))
	for ki, kit := range kits {
		kit.Baseline = nil // learn from scratch; ExpectedProfiles must not correct
		sums[ki] = meterstate.NewRows(e.cfg.N, 24)
	}
	// Dropped (NaN) readings carry no baseline evidence; they are skipped and
	// each (meter, slot) averages over its valid samples only. The counts are
	// shared across kits — missingness lives in the realized trace, not in
	// any kit's expectation.
	counts := meterstate.NewRows(e.cfg.N, 24)
	for d := 0; d < days; d++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		env, err := e.PrepareDay(ctx, true)
		if err != nil {
			return err
		}
		expecteds := make([][][]float64, len(kits))
		for ki, kit := range kits {
			expecteds[ki], err = kit.ExpectedProfiles(ctx, e, env, env.Published)
			if err != nil {
				return err
			}
		}
		trace, err := e.SimulateDay(ctx, env, nil, true, nil)
		if err != nil {
			return err
		}
		for n := range counts {
			for h := 0; h < 24; h++ {
				v := trace.RealizedMeter[n][h]
				if math.IsNaN(v) {
					continue
				}
				counts[n][h]++
				for ki := range kits {
					sums[ki][n][h] += v - expecteds[ki][n][h]
				}
			}
		}
	}
	for ki, kit := range kits {
		for n := range sums[ki] {
			for h := range sums[ki][n] {
				if counts[n][h] > 0 {
					sums[ki][n][h] /= counts[n][h]
				}
				// A slot with no valid sample keeps a zero correction.
			}
		}
		kit.Baseline = sums[ki]
	}
	return nil
}

// MonitorDayResult is the stored outcome of one monitored day: the
// detector's per-slot outputs plus the two per-slot aggregates of the day's
// trace that readers use. No field grows with the number of meters, so a day
// costs the same to keep, checkpoint and serve at any community size; the
// per-meter flows live only in SimulateDay's DayTrace while the day runs.
type MonitorDayResult struct {
	// Flagged[h] is the raw number of meters the channel flagged at slot h.
	Flagged []int
	// Estimated[h] is the debiased hacked-count estimate fed to the POMDP.
	Estimated []int
	// ObsBucket[h] is the bucketed observation fed to the POMDP.
	ObsBucket []int
	// BeliefBucket[h] is the POMDP's MAP state estimate after ingesting the
	// slot's observation — the detector's actual answer to "how many meters
	// are hacked", integrating the campaign dynamics over observation lag.
	BeliefBucket []int
	// TrueBucket[h] is the bucketed true hacked count.
	TrueBucket []int
	// Actions[h] is the POMDP action taken after slot h.
	Actions []int
	// Load is the realized community consumption Σlₙ per slot.
	Load timeseries.Series
	// TrueHacked[h] is the number of compromised meters during slot h.
	TrueHacked []int
	// ImputedReadings counts meter-slots whose reading was missing (AMI
	// dropout or rejected corruption) and reconstructed from history.
	ImputedReadings int
	// Degraded marks a day monitored on incomplete inputs — imputed
	// readings or a stale guideline broadcast. Detection still ran, but its
	// observations carry less evidence than on a clean day.
	Degraded bool
	// Confidence is the fraction of meter-slot readings observed directly
	// (1 = nothing imputed).
	Confidence float64
}

// MonitorDay simulates one day with the kit in the loop: each slot the
// deviation channel counts flagged meters, the POMDP belief advances, and an
// inspect action repairs the campaign. buckets must match the kit's long-term
// detector. Set enforce to false to monitor without repairing (pure
// observation, as in Figure 6's accuracy measurement).
func (e *Engine) MonitorDay(ctx context.Context, kit *DetectorKit, camp *attack.Campaign, buckets detect.Bucketizer, enforce bool) (*MonitorDayResult, error) {
	if kit.LongTerm == nil {
		return nil, errors.New("community: kit has no long-term detector")
	}
	if err := kit.ensureFlagger(e.cfg.N); err != nil {
		return nil, err
	}
	sink := obs.From(ctx)
	defer sink.Span("engine.monitor_day")()
	// Without enforcement, inspections are advisory: the belief must not
	// assume the fleet was repaired.
	kit.LongTerm.DryRun = !enforce
	env, err := e.PrepareDay(ctx, true)
	if err != nil {
		return nil, err
	}
	expected, err := kit.ExpectedProfiles(ctx, e, env, env.Published)
	if err != nil {
		return nil, err
	}

	res := &MonitorDayResult{
		Flagged:      make([]int, 24),
		Estimated:    make([]int, 24),
		ObsBucket:    make([]int, 24),
		BeliefBucket: make([]int, 24),
		TrueBucket:   make([]int, 24),
		Actions:      make([]int, 24),
		Confidence:   1,
	}
	// Missing readings are imputed from the accumulated history (the world
	// runs with net metering, so the measured quantity is the net flow y);
	// the original trace record keeps its NaNs. measured holds the filled
	// view the deviation channel observes.
	imputer, err := detect.NewImputer(e.hist, e.cfg.N, true)
	if err != nil {
		return nil, fmt.Errorf("community: imputer: %w", err)
	}
	measured := meterstate.NewRows(e.cfg.N, 24)
	inspect := func(h int, trace *DayTrace) (bool, error) {
		imputed, err := imputer.FillSlot(measured, expected, trace.RealizedMeter, h)
		if err != nil {
			return false, fmt.Errorf("community: impute slot %d: %w", h, err)
		}
		res.ImputedReadings += imputed
		flagged, err := kit.flagger.Observe(expected, measured, h)
		if err != nil {
			return false, fmt.Errorf("community: flag channel: %w", err)
		}
		est, err := detect.EstimateHacked(flagged, e.cfg.N, kit.FP, kit.FN)
		if err != nil {
			return false, fmt.Errorf("community: estimate from %d flagged: %w", flagged, err)
		}
		action, obs := kit.LongTerm.Step(est)
		res.Flagged[h] = flagged
		res.Estimated[h] = est
		res.ObsBucket[h] = obs
		res.BeliefBucket[h] = kit.LongTerm.MAPBucket()
		res.TrueBucket[h] = buckets.Bucket(trace.TrueHacked[h])
		res.Actions[h] = action
		if enforce && action == detect.ActionInspect {
			// Past deviations belong to the pre-repair fleet state.
			kit.flagger.Reset()
			return true, nil
		}
		return false, nil
	}
	trace, err := e.SimulateDay(ctx, env, camp, true, inspect)
	if err != nil {
		return nil, err
	}
	res.Load, res.TrueHacked = trace.Load, trace.TrueHacked
	res.Confidence = 1 - float64(res.ImputedReadings)/float64(e.cfg.N*24)
	res.Degraded = res.ImputedReadings > 0 || (env.Faults != nil && env.Faults.StalePrice)
	if sink != nil {
		// Summaries read from the finished result only: peak flagged-meter
		// count over the day and the number of inspection slots. e.day was
		// advanced by SimulateDay, so the monitored day is e.day-1.
		peakFlagged, inspections := 0, 0
		for h := 0; h < 24; h++ {
			if res.Flagged[h] > peakFlagged {
				peakFlagged = res.Flagged[h]
			}
			if res.Actions[h] == detect.ActionInspect {
				inspections++
			}
		}
		sink.Count("detect.imputed_readings", int64(res.ImputedReadings))
		sink.Day(obs.DayRecord{
			Day: e.day - 1, Kit: kit.Name, Flagged: peakFlagged,
			Imputed: res.ImputedReadings, Inspections: inspections,
			Degraded: res.Degraded, Confidence: res.Confidence,
		})
	}
	return res, nil
}

// ChannelRates estimates the per-meter false-positive and false-negative
// rates of a kit's deviation channel by running one sacrificial day with a
// known compromised fraction and comparing flags against ground truth. The
// day is simulated without advancing the engine (history, day counter,
// demand basis), so calibration does not perturb the simulation, and the
// day's solves stay in the engine's memo: a second kit's calibration and the
// first monitored day, which is the same day, reuse them.
func (e *Engine) ChannelRates(ctx context.Context, kit *DetectorKit, hackedFrac float64, atk attack.Attack) (fp, fn float64, err error) {
	if hackedFrac <= 0 || hackedFrac >= 1 {
		return 0, 0, fmt.Errorf("community: hacked fraction %v out of (0,1)", hackedFrac)
	}
	if err := kit.Validate(); err != nil {
		return 0, 0, err
	}

	batch := int(hackedFrac * float64(e.cfg.N))
	if batch < 1 {
		batch = 1
	}
	// A zero-probability campaign seeded with exactly `batch` hacked meters:
	// the compromised set stays fixed for the whole calibration day.
	camp, err := attack.NewCampaign(e.cfg.N, 0, 1, 1, atk)
	if err != nil {
		return 0, 0, err
	}
	camp.HackNow(batch, e.src.Derive("calibration"))

	env, err := e.PrepareDay(ctx, true)
	if err != nil {
		return 0, 0, err
	}
	expected, err := kit.ExpectedProfiles(ctx, e, env, env.Published)
	if err != nil {
		return 0, 0, err
	}
	trace, err := e.simulate(ctx, env, camp, true, nil)
	if err != nil {
		return 0, 0, err
	}

	// The compromised set is fixed for the whole day; replay the running-
	// mean channel over the day and count per-slot flag outcomes. Dropped
	// readings are imputed exactly as MonitorDay imputes them, so the
	// calibrated rates describe the channel the monitor actually runs.
	flagger, err := detect.NewFlagger(e.cfg.N, kit.FlagTau)
	if err != nil {
		return 0, 0, err
	}
	imputer, err := detect.NewImputer(e.hist, e.cfg.N, true)
	if err != nil {
		return 0, 0, err
	}
	measured := meterstate.NewRows(e.cfg.N, 24)
	var fpFlags, fpTotal, fnMisses, fnTotal int
	for h := 0; h < 24; h++ {
		if _, err := imputer.FillSlot(measured, expected, trace.RealizedMeter, h); err != nil {
			return 0, 0, err
		}
		if _, err := flagger.Observe(expected, measured, h); err != nil {
			return 0, 0, err
		}
		for n := range e.customers {
			flagged := flagger.Flagged(n)
			if camp.Hacked(n) {
				fnTotal++
				if !flagged {
					fnMisses++
				}
			} else {
				fpTotal++
				if flagged {
					fpFlags++
				}
			}
		}
	}
	if fpTotal == 0 || fnTotal == 0 {
		return 0, 0, errors.New("community: calibration produced no samples")
	}
	fp = float64(fpFlags) / float64(fpTotal)
	fn = float64(fnMisses) / float64(fnTotal)
	return fp, fn, nil
}

// AttackProbe builds an attack.ProbeFn that evaluates candidate payloads
// against the kit's deviation channel: it returns the worst single-slot
// absolute deviation (kW) a candidate payload *adds* to a hacked meter's
// profile — the meter's predicted flows under the manipulated price (plus
// any reading falsification) against the same predictor's flows under the
// published price. Both sides run the identical machinery, so the harmless
// payload probes to exactly zero and the probe isolates the marginal
// detector-visible signal the payload itself induces; the Adaptive
// attacker's Margin is the headroom it keeps for the nuisance deviation
// (baseline error, measurement noise) it cannot observe. The probe reasons
// on one prepared day and a shared load predictor; nothing mutates the
// engine (PrepareDay is pure and every solve derives its rng by label), so
// probing is repeatable and the parent stream never advances.
func (e *Engine) AttackProbe(ctx context.Context, kit *DetectorKit) (attack.ProbeFn, error) {
	if err := kit.Validate(); err != nil {
		return nil, err
	}
	env, err := e.PrepareDay(ctx, true)
	if err != nil {
		return nil, err
	}
	cfg := e.gameConfig(true)
	pred, err := loadpred.New(e.Customers(), cfg, env.PV, e.ControllerSeed())
	if err != nil {
		return nil, err
	}
	base, err := pred.Predict(ctx, env.Published)
	if err != nil {
		return nil, err
	}
	clean := meterFlows(base, true)
	return func(cand attack.Attack) (float64, error) {
		if cand == nil {
			return 0, errors.New("community: probe of nil attack")
		}
		res, err := pred.Predict(ctx, cand.Apply(env.Published))
		if err != nil {
			return 0, err
		}
		flows := meterFlows(res, true)
		ra, _ := cand.(attack.ReadingAttack)
		worst := 0.0
		for n := range flows {
			for h := range flows[n] {
				v := flows[n][h]
				if ra != nil {
					v = ra.FalsifyReading(h, v)
				}
				if d := math.Abs(v - clean[n][h]); d > worst {
					worst = d
				}
			}
		}
		return worst, nil
	}, nil
}

// SingleEventKit builds a single-event detector whose load predictions use
// the kit's community model for this engine.
func (e *Engine) SingleEventKit(kit *DetectorKit, env *DayEnvironment, deltaPAR float64) (*detect.SingleEvent, error) {
	cfg := e.gameConfig(kit.NetMetering)
	var pv [][]float64
	if kit.NetMetering {
		pv = env.PVForecast
	}
	pred, err := loadpred.New(e.Customers(), cfg, pv, e.ControllerSeed())
	if err != nil {
		return nil, err
	}
	return &detect.SingleEvent{Pred: pred, DeltaPAR: deltaPAR}, nil
}
