package forecast

import (
	"testing"

	"nmdetect/internal/metrics"
	"nmdetect/internal/rng"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

// synthHistory builds a history in which the price is formed from net demand
// (demand minus renewable) and the renewable trace varies day by day per the
// supplied per-day solar scale. Returns the history and the price that the
// formation would publish for one more day with the given next-day scale.
func synthHistory(t *testing.T, dayScales []float64, nextScale float64) (tariff.History, timeseries.Series, timeseries.Series) {
	t.Helper()
	const customers = 100
	form := tariff.DefaultFormation()
	form.NoiseSigma = 0 // deterministic for clean comparisons

	demandDay := make(timeseries.Series, 24)
	for h := 0; h < 24; h++ {
		// Morning and evening humps.
		base := 60.0
		if h >= 6 && h < 9 {
			base = 110
		}
		if h >= 10 && h < 16 {
			base = 90
		}
		if h >= 17 && h < 22 {
			base = 140
		}
		demandDay[h] = base
	}
	solarDay := func(scale float64) timeseries.Series {
		ren := make(timeseries.Series, 24)
		for h := 10; h < 16; h++ {
			ren[h] = 100 * scale
		}
		return ren
	}

	var hist tariff.History
	for _, scale := range dayScales {
		ren := solarDay(scale)
		price, err := form.Publish(demandDay, ren, customers, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 24; h++ {
			hist.Append(price[h], ren[h], demandDay[h])
		}
	}
	nextRen := solarDay(nextScale)
	nextPrice, err := form.Publish(demandDay, nextRen, customers, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	return hist, nextPrice, nextRen
}

func TestModeString(t *testing.T) {
	if ModePriceOnly.String() != "price-only" || ModeNetMeteringAware.String() != "net-metering-aware" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode empty")
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	hist, _, _ := synthHistory(t, []float64{1, 1, 1, 1}, 1)
	if _, err := Train(tariff.History{}, ModePriceOnly, DefaultOptions()); err == nil {
		t.Error("empty history accepted")
	}
	if _, err := Train(hist, Mode(5), DefaultOptions()); err == nil {
		t.Error("unknown mode accepted")
	}
	bad := DefaultOptions()
	bad.LagDays = 0
	if _, err := Train(hist, ModePriceOnly, bad); err == nil {
		t.Error("zero lag days accepted")
	}
	short := hist.Tail(48) // 2 days < LagDays+1 = 3
	if _, err := Train(short, ModePriceOnly, DefaultOptions()); err == nil {
		t.Error("short history accepted")
	}
	ragged := hist
	ragged.Price = append(timeseries.Series{}, hist.Price...)
	ragged.Price = append(ragged.Price, 1)
	ragged.Renewable = append(timeseries.Series{}, hist.Renewable...)
	ragged.Renewable = append(ragged.Renewable, 1)
	ragged.Demand = append(timeseries.Series{}, hist.Demand...)
	ragged.Demand = append(ragged.Demand, 1)
	if _, err := Train(ragged, ModePriceOnly, DefaultOptions()); err == nil {
		t.Error("non-whole-day history accepted")
	}
}

func TestPriceOnlyPredictsStationaryHistory(t *testing.T) {
	// With identical days, the price-only forecaster should nail the next day.
	hist, next, _ := synthHistory(t, []float64{1, 1, 1, 1, 1, 1}, 1)
	f, err := Train(hist, ModePriceOnly, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := f.PredictDay(hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := metrics.Must(metrics.RMSE(pred, next)); rmse > 0.002 {
		t.Fatalf("stationary RMSE = %v", rmse)
	}
}

func TestNetMeteringAwareTracksSolarSwing(t *testing.T) {
	// History alternates cloudy/clear days; the evaluation day is clear but
	// the most recent days were cloudy. The price-only predictor follows the
	// recent average; the NM-aware predictor sees the renewable forecast and
	// must be substantially more accurate — the paper's core claim.
	scales := []float64{1.0, 0.2, 1.0, 0.2, 1.0, 0.1, 0.2, 0.15}
	hist, next, nextRen := synthHistory(t, scales, 1.0)

	blind, err := Train(hist, ModePriceOnly, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Train(hist, ModeNetMeteringAware, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	blindPred, err := blind.PredictDay(hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	awarePred, err := aware.PredictDay(hist, nextRen)
	if err != nil {
		t.Fatal(err)
	}

	blindErr := metrics.Must(metrics.RMSE(blindPred, next))
	awareErr := metrics.Must(metrics.RMSE(awarePred, next))
	if awareErr >= blindErr {
		t.Fatalf("NM-aware RMSE %v not below price-only RMSE %v", awareErr, blindErr)
	}
	// The advantage should be concentrated in the solar window (10–16).
	blindMid := metrics.Must(metrics.RMSE(blindPred[10:16], next[10:16]))
	awareMid := metrics.Must(metrics.RMSE(awarePred[10:16], next[10:16]))
	if awareMid >= blindMid/1.5 {
		t.Fatalf("midday: NM-aware RMSE %v not well below price-only %v", awareMid, blindMid)
	}
}

func TestPredictDayValidation(t *testing.T) {
	hist, _, nextRen := synthHistory(t, []float64{1, 1, 1, 1}, 1)
	aware, err := Train(hist, ModeNetMeteringAware, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aware.PredictDay(hist, nil); err == nil {
		t.Error("missing renewable forecast accepted")
	}
	if _, err := aware.PredictDay(tariff.History{}, nextRen); err == nil {
		t.Error("empty history accepted")
	}
	short := hist.Tail(24)
	blind, err := Train(hist, ModePriceOnly, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blind.PredictDay(short.Tail(0), nil); err == nil {
		t.Error("too-short history accepted")
	}
}

func TestPredictUsesRecentHistory(t *testing.T) {
	// Predicting from a different tail should change the result: the
	// forecaster must actually read the passed history, not memorize.
	scales := []float64{0.2, 1.0, 0.2, 1.0, 0.2, 1.0}
	hist, _, _ := synthHistory(t, scales, 1)
	f, err := Train(hist, ModePriceOnly, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	full, err := f.PredictDay(hist, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last (clear) day so the history ends on a cloudy day instead.
	// (Tail keeps the *last* n slots, so slice the head explicitly.)
	shorter := tariff.History{
		Price:     hist.Price.Slice(0, hist.Len()-24),
		Renewable: hist.Renewable.Slice(0, hist.Len()-24),
		Demand:    hist.Demand.Slice(0, hist.Len()-24),
	}
	alt, err := f.PredictDay(shorter, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for h := range full {
		if full[h] != alt[h] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("prediction ignores the supplied history tail")
	}
}

func TestForecasterWithNoisyHistory(t *testing.T) {
	// Noisy price formation: predictions should still land near the truth.
	const customers = 100
	form := tariff.DefaultFormation()
	src := rng.New(99)
	demand := make(timeseries.Series, 0, 24*8)
	ren := make(timeseries.Series, 0, 24*8)
	for d := 0; d < 8; d++ {
		for h := 0; h < 24; h++ {
			demand = append(demand, 80+40*dayShape(h))
			if h >= 10 && h < 16 {
				ren = append(ren, 90)
			} else {
				ren = append(ren, 0)
			}
		}
	}
	price, err := form.Publish(demand, ren, customers, true, src)
	if err != nil {
		t.Fatal(err)
	}
	hist := tariff.History{Price: price[:24*7], Renewable: ren[:24*7], Demand: demand[:24*7]}
	next := price[24*7:]

	aware, err := Train(hist, ModeNetMeteringAware, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := aware.PredictDay(hist, ren[24*7:])
	if err != nil {
		t.Fatal(err)
	}
	if rmse := metrics.Must(metrics.RMSE(pred, next)); rmse > 0.02 {
		t.Fatalf("noisy-history RMSE = %v", rmse)
	}
}

func dayShape(h int) float64 {
	if h >= 17 && h < 22 {
		return 1
	}
	if h >= 6 && h < 16 {
		return 0.5
	}
	return 0
}
