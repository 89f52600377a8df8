package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"nmdetect/internal/rng"
)

func TestRMSE(t *testing.T) {
	if got := Must(RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})); got != 0 {
		t.Fatalf("perfect RMSE = %v", got)
	}
	if got := Must(RMSE([]float64{0, 0}, []float64{3, 4})); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %v", got)
	}
	if Must(RMSE(nil, nil)) != 0 {
		t.Fatal("empty RMSE should be 0")
	}
}

func TestMAE(t *testing.T) {
	if got := Must(mae([]float64{1, 5}, []float64{2, 3})); got != 1.5 {
		t.Fatalf("MAE = %v", got)
	}
}

func TestMAPE(t *testing.T) {
	got := Must(MAPE([]float64{110, 90}, []float64{100, 100}))
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %v, want 10", got)
	}
	// Zero actuals are skipped.
	got = Must(MAPE([]float64{1, 110}, []float64{0, 100}))
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE with zero actual = %v, want 10", got)
	}
	if Must(MAPE([]float64{1}, []float64{0})) != 0 {
		t.Fatal("all-zero actuals should yield 0")
	}
}

func TestLengthMismatchErrors(t *testing.T) {
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("RMSE mismatch did not error")
	}
	if _, err := mae([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mae mismatch did not error")
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("MAPE mismatch did not error")
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("Accuracy mismatch did not error")
	}
}

func TestMustPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must did not panic on error")
		}
	}()
	Must(RMSE([]float64{1}, []float64{1, 2}))
}

func TestPAR(t *testing.T) {
	if got := Must(FinitePAR([]float64{1, 1, 1, 5})); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("PAR = %v", got)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Must(Accuracy([]int{1, 2, 3}, []int{1, 2, 3})); got != 1 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Must(Accuracy([]int{1, 0, 3, 0}, []int{1, 2, 3, 4})); got != 0.5 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Must(Accuracy(nil, nil)) != 0 {
		t.Fatal("empty Accuracy should be 0")
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Observe(true, true)   // TP
	c.Observe(true, true)   // TP
	c.Observe(true, false)  // FP
	c.Observe(false, true)  // FN
	c.Observe(false, false) // TN
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d", c.Total())
	}
	if math.Abs(c.Accuracy()-0.6) > 1e-12 {
		t.Fatalf("Accuracy = %v", c.Accuracy())
	}
	if math.Abs(c.Precision()-2.0/3.0) > 1e-12 {
		t.Fatalf("Precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3.0) > 1e-12 {
		t.Fatalf("Recall = %v", c.Recall())
	}
	if c.String() == "" {
		t.Fatal("String is empty")
	}
}

func TestConfusionEmptyEdges(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 {
		t.Fatal("empty confusion metrics should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Must(Quantile(xs, 0)) != 1 || Must(Quantile(xs, 1)) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if Must(Quantile(xs, 0.5)) != 3 {
		t.Fatalf("median = %v", Must(Quantile(xs, 0.5)))
	}
	if got := Must(Quantile([]float64{1, 2}, 0.5)); got != 1.5 {
		t.Fatalf("interpolated median = %v", got)
	}
	if Must(Quantile([]float64{7}, 0.3)) != 7 {
		t.Fatal("singleton quantile wrong")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Must(Quantile(xs, 0.5))
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileErrors(t *testing.T) {
	for _, tc := range []struct {
		xs []float64
		q  float64
	}{
		{nil, 0.5},
		{[]float64{1}, -0.1},
		{[]float64{1}, 1.1},
	} {
		if _, err := Quantile(tc.xs, tc.q); err == nil {
			t.Errorf("Quantile(%v, %v): expected error", tc.xs, tc.q)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	s := rng.New(1)
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1 := s.Float64()
		q2 := s.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Must(Quantile(raw, q1)) <= Must(Quantile(raw, q2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapCIBracketsMean(t *testing.T) {
	s := rng.New(2)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = s.Normal(10, 1)
	}
	lo, hi, err := bootstrapCI(xs, 300, 0.05, s.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Fatalf("degenerate CI [%v, %v]", lo, hi)
	}
	if lo > 10 || hi < 10 {
		t.Fatalf("CI [%v, %v] excludes true mean 10", lo, hi)
	}
	if hi-lo > 0.5 {
		t.Fatalf("CI too wide: [%v, %v]", lo, hi)
	}
}

func TestBootstrapCIErrors(t *testing.T) {
	if _, _, err := bootstrapCI(nil, 100, 0.05, rng.New(1).Float64); err == nil {
		t.Fatal("empty input did not error")
	}
	if _, _, err := bootstrapCI([]float64{1}, 0, 0.05, rng.New(1).Float64); err == nil {
		t.Fatal("non-positive nBoot did not error")
	}
}

func TestRelChange(t *testing.T) {
	// The paper's own arithmetic: (1.9037-1.4700)/1.4700 = 29.50%.
	got := Must(relChange(1.9037, 1.4700))
	if math.Abs(got-0.2950) > 5e-4 {
		t.Fatalf("relChange = %v", got)
	}
	if _, err := relChange(1, 0); err == nil {
		t.Fatal("zero base did not error")
	}
}

func TestFinite(t *testing.T) {
	if v, err := Finite("x", 1.5); err != nil || v != 1.5 {
		t.Fatalf("Finite(1.5) = %v, %v", v, err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Finite("x", bad); err == nil {
			t.Errorf("Finite(%v) accepted a non-finite value", bad)
		}
	}
}

func TestFinitePAR(t *testing.T) {
	if v, err := FinitePAR([]float64{1, 3, 2}); err != nil || v != 1.5 {
		t.Fatalf("FinitePAR = %v, %v; want 1.5", v, err)
	}
	// The raw Series.PAR is +Inf for a zero-mean series with a nonzero peak
	// — that sentinel must not cross the report boundary.
	if _, err := FinitePAR([]float64{-1, 1}); err == nil {
		t.Error("FinitePAR accepted a zero-mean series (raw PAR is +Inf)")
	}
	if _, err := FinitePAR(nil); err == nil {
		t.Error("FinitePAR accepted an empty series")
	}
	// All-zero series: raw PAR is 0, which is finite and passes.
	if v, err := FinitePAR([]float64{0, 0}); err != nil || v != 0 {
		t.Errorf("FinitePAR(zeros) = %v, %v; want 0", v, err)
	}
}

// The helpers below are test-only: the tests of this file pin their
// arithmetic.

// mae returns the mean absolute error.
func mae(pred, actual []float64) (float64, error) {
	if err := checkLen(pred, actual); err != nil {
		return 0, err
	}
	if len(pred) == 0 {
		return 0, nil
	}
	acc := 0.0
	for i := range pred {
		acc += math.Abs(pred[i] - actual[i])
	}
	return acc / float64(len(pred)), nil
}

// bootstrapCI estimates a two-sided confidence interval for the mean of xs by
// resampling. The draw function must return a uniform value in [0,1); nBoot
// resamples are taken and the (alpha/2, 1-alpha/2) quantiles of the resampled
// means are returned.
func bootstrapCI(xs []float64, nBoot int, alpha float64, draw func() float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, errors.New("metrics: bootstrapCI of empty slice")
	}
	if nBoot <= 0 {
		return 0, 0, errors.New("metrics: bootstrapCI with non-positive nBoot")
	}
	means := make([]float64, nBoot)
	for b := 0; b < nBoot; b++ {
		sum := 0.0
		for range xs {
			idx := int(draw() * float64(len(xs)))
			if idx >= len(xs) {
				idx = len(xs) - 1
			}
			sum += xs[idx]
		}
		means[b] = sum / float64(len(xs))
	}
	if lo, err = Quantile(means, alpha/2); err != nil {
		return 0, 0, err
	}
	if hi, err = Quantile(means, 1-alpha/2); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// relChange returns (a-b)/b as a signed fraction — the form the paper uses
// for all its headline percentages (e.g. (1.9037-1.4700)/1.4700 = 29.50%).
// A zero base is an error.
func relChange(a, b float64) (float64, error) {
	if b == 0 {
		return 0, errors.New("metrics: relChange with zero base")
	}
	return (a - b) / b, nil
}
