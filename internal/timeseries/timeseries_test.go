package timeseries

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestBasicStats(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if s.Sum() != 10 {
		t.Fatalf("Sum = %v", s.Sum())
	}
	if s.Mean() != 2.5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if mx, i := s.Max(); mx != 4 || i != 3 {
		t.Fatalf("Max = %v at %d", mx, i)
	}
	if mn, i := s.Min(); mn != 1 || i != 0 {
		t.Fatalf("Min = %v at %d", mn, i)
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Sum() != 0 || s.std() != 0 {
		t.Fatal("empty series stats not zero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Max of empty series did not panic")
		}
	}()
	s.Max()
}

func TestStd(t *testing.T) {
	s := Series{2, 4, 4, 4, 5, 5, 7, 9}
	if math.Abs(s.std()-2.0) > 1e-12 {
		t.Fatalf("std = %v, want 2", s.std())
	}
}

func TestAddSubScale(t *testing.T) {
	a := Series{1, 2}
	b := Series{3, 5}
	if c := a.add(b); c[0] != 4 || c[1] != 7 {
		t.Fatalf("add = %v", c)
	}
	if c := b.sub(a); c[0] != 2 || c[1] != 3 {
		t.Fatalf("sub = %v", c)
	}
	if c := a.scaleBy(10); c[0] != 10 || c[1] != 20 {
		t.Fatalf("scaleBy = %v", c)
	}
}

func TestAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Series{1}.add(Series{1, 2})
}

func TestCloneIndependence(t *testing.T) {
	a := Series{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestPAR(t *testing.T) {
	flat := Series{2, 2, 2, 2}
	if flat.PAR() != 1 {
		t.Fatalf("flat PAR = %v", flat.PAR())
	}
	peaky := Series{1, 1, 1, 5}
	want := 5.0 / 2.0
	if math.Abs(peaky.PAR()-want) > 1e-12 {
		t.Fatalf("PAR = %v, want %v", peaky.PAR(), want)
	}
}

func TestPARZeroMean(t *testing.T) {
	if (Series{0, 0}).PAR() != 0 {
		t.Fatal("all-zero PAR should be 0")
	}
	if !math.IsInf((Series{-1, 1}).PAR(), 1) {
		t.Fatal("zero-mean nonzero-peak PAR should be +Inf")
	}
}

func TestPARAtLeastOneProperty(t *testing.T) {
	// For non-negative series with positive mean, PAR >= 1.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := make(Series, len(raw))
		sum := 0.0
		for i, v := range raw {
			// Bound magnitudes so the sum cannot overflow to +Inf.
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				return true
			}
			s[i] = math.Abs(v)
			sum += s[i]
		}
		if sum == 0 {
			return true
		}
		return s.PAR() >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRolling(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	r := s.rolling(2)
	want := Series{1, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-12 {
			t.Fatalf("rolling[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestRollingWindowOne(t *testing.T) {
	s := Series{3, 1, 4}
	r := s.rolling(1)
	for i := range s {
		if r[i] != s[i] {
			t.Fatal("rolling(1) should equal the series")
		}
	}
}

func TestDiff(t *testing.T) {
	s := Series{1, 4, 9, 16}
	d := s.diff()
	want := Series{3, 5, 7}
	if len(d) != 3 {
		t.Fatalf("diff length = %d", len(d))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("diff = %v", d)
		}
	}
	if len((Series{1}).diff()) != 0 {
		t.Fatal("diff of singleton should be empty")
	}
}

func TestNormalizationRoundTrip(t *testing.T) {
	s := Series{10, 20, 30}
	n := fitNormalization(s)
	for _, v := range s {
		if got := n.invert(n.apply(v)); math.Abs(got-v) > 1e-12 {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	if n.apply(10) != 0 || n.apply(30) != 1 {
		t.Fatal("normalization endpoints wrong")
	}
}

func TestNormalizationConstantSeries(t *testing.T) {
	n := fitNormalization(Series{5, 5, 5})
	if n.apply(5) != 0.5 {
		t.Fatalf("constant series apply = %v", n.apply(5))
	}
	if n.invert(0.7) != 5 {
		t.Fatalf("constant series invert = %v", n.invert(0.7))
	}
}

func TestLagEmbed(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	rows, targets := lagEmbed(s, 2)
	if len(rows) != 3 || len(targets) != 3 {
		t.Fatalf("lengths = %d, %d", len(rows), len(targets))
	}
	if rows[0][0] != 1 || rows[0][1] != 2 || targets[0] != 3 {
		t.Fatalf("row 0 = %v -> %v", rows[0], targets[0])
	}
	if rows[2][0] != 3 || rows[2][1] != 4 || targets[2] != 5 {
		t.Fatalf("row 2 = %v -> %v", rows[2], targets[2])
	}
}

func TestLagEmbedTooShort(t *testing.T) {
	rows, targets := lagEmbed(Series{1, 2}, 5)
	if rows != nil || targets != nil {
		t.Fatal("short series should return nil")
	}
}

func TestLagEmbedRowsAreCopies(t *testing.T) {
	s := Series{1, 2, 3, 4}
	rows, _ := lagEmbed(s, 2)
	rows[0][0] = 99
	if s[0] != 1 {
		t.Fatal("lagEmbed rows alias the series")
	}
}

func TestMultiLagEmbed(t *testing.T) {
	p := Series{1, 2, 3, 4}
	v := Series{10, 20, 30, 40}
	rows, targets := multiLagEmbed([]Series{p, v}, p, 2)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Row 0: p lags [1,2], v lags [10,20], target p[2]=3.
	want := []float64{1, 2, 10, 20}
	for i := range want {
		if rows[0][i] != want[i] {
			t.Fatalf("row 0 = %v", rows[0])
		}
	}
	if targets[0] != 3 {
		t.Fatalf("target 0 = %v", targets[0])
	}
}

func TestMultiLagEmbedLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched inputs did not panic")
		}
	}()
	multiLagEmbed([]Series{{1, 2}}, Series{1, 2, 3}, 1)
}

func TestRepeat(t *testing.T) {
	s := Series{1, 2}
	r := repeat(s, 3)
	if len(r) != 6 {
		t.Fatalf("repeat length = %d", len(r))
	}
	for i, want := range []float64{1, 2, 1, 2, 1, 2} {
		if r[i] != want {
			t.Fatalf("repeat = %v", r)
		}
	}
}

func TestSliceBounds(t *testing.T) {
	s := Series{1, 2, 3}
	sub := s.Slice(1, 3)
	if len(sub) != 2 || sub[0] != 2 {
		t.Fatalf("Slice = %v", sub)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds Slice did not panic")
		}
	}()
	s.Slice(0, 4)
}

// The Series operations below are test-only: the tests of this file pin
// their arithmetic.

// std returns the population standard deviation.
func (s Series) std() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s.Mean()
	acc := 0.0
	for _, v := range s {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s)))
}

// add returns the element-wise sum of s and t.
func (s Series) add(t Series) Series {
	if len(s) != len(t) {
		panic(fmt.Sprintf("timeseries: add length mismatch %d != %d", len(s), len(t)))
	}
	out := make(Series, len(s))
	for i := range s {
		out[i] = s[i] + t[i]
	}
	return out
}

// sub returns the element-wise difference s - t.
func (s Series) sub(t Series) Series {
	if len(s) != len(t) {
		panic(fmt.Sprintf("timeseries: sub length mismatch %d != %d", len(s), len(t)))
	}
	out := make(Series, len(s))
	for i := range s {
		out[i] = s[i] - t[i]
	}
	return out
}

// scaleBy returns s with every element multiplied by alpha.
func (s Series) scaleBy(alpha float64) Series {
	out := make(Series, len(s))
	for i := range s {
		out[i] = alpha * s[i]
	}
	return out
}

// rolling returns a series of the same length where element i is the mean of
// the window s[max(0,i-window+1) .. i].
func (s Series) rolling(window int) Series {
	if window <= 0 {
		panic("timeseries: rolling with non-positive window")
	}
	out := make(Series, len(s))
	sum := 0.0
	for i := range s {
		sum += s[i]
		if i >= window {
			sum -= s[i-window]
		}
		n := i + 1
		if n > window {
			n = window
		}
		out[i] = sum / float64(n)
	}
	return out
}

// diff returns the first difference series (length len(s)-1).
func (s Series) diff() Series {
	if len(s) < 2 {
		return Series{}
	}
	out := make(Series, len(s)-1)
	for i := 1; i < len(s); i++ {
		out[i-1] = s[i] - s[i-1]
	}
	return out
}

// normalization rescales a series into [0, 1] and back.
type normalization struct {
	Min, Max float64
}

// fitNormalization computes the min-max range of s. A constant series maps
// everything to 0.5.
func fitNormalization(s Series) normalization {
	mn, _ := s.Min()
	mx, _ := s.Max()
	return normalization{Min: mn, Max: mx}
}

// apply maps v into [0, 1] under the fitted range.
func (n normalization) apply(v float64) float64 {
	if n.Max == n.Min {
		return 0.5
	}
	return (v - n.Min) / (n.Max - n.Min)
}

// invert maps a normalized value back to the original scale.
func (n normalization) invert(v float64) float64 {
	if n.Max == n.Min {
		return n.Min
	}
	return n.Min + v*(n.Max-n.Min)
}

// applySeries normalizes an entire series.
func (n normalization) applySeries(s Series) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = n.apply(v)
	}
	return out
}

// lagEmbed builds the supervised-learning view of a series for one-step-ahead
// forecasting: row t is [s[t-lags], ..., s[t-1]] with target s[t]. It returns
// the feature rows and targets; len(rows) == len(s) - lags.
func lagEmbed(s Series, lags int) ([][]float64, []float64) {
	if lags <= 0 {
		panic("timeseries: lagEmbed with non-positive lags")
	}
	if len(s) <= lags {
		return nil, nil
	}
	n := len(s) - lags
	rows := make([][]float64, n)
	targets := make([]float64, n)
	for t := 0; t < n; t++ {
		row := make([]float64, lags)
		copy(row, s[t:t+lags])
		rows[t] = row
		targets[t] = s[t+lags]
	}
	return rows, targets
}

// multiLagEmbed builds feature rows combining lags from several aligned
// series (e.g. price, renewable generation and demand for the paper's
// G(p, V, D) model). Row t concatenates, for each input series, that series'
// lags values ending at t-1; the target is target[t]. All series must share
// the target's length.
func multiLagEmbed(inputs []Series, target Series, lags int) ([][]float64, []float64) {
	if lags <= 0 {
		panic("timeseries: multiLagEmbed with non-positive lags")
	}
	for i, in := range inputs {
		if len(in) != len(target) {
			panic(fmt.Sprintf("timeseries: multiLagEmbed input %d length %d != target %d", i, len(in), len(target)))
		}
	}
	if len(target) <= lags {
		return nil, nil
	}
	n := len(target) - lags
	rows := make([][]float64, n)
	targets := make([]float64, n)
	for t := 0; t < n; t++ {
		row := make([]float64, 0, lags*len(inputs))
		for _, in := range inputs {
			row = append(row, in[t:t+lags]...)
		}
		rows[t] = row
		targets[t] = target[t+lags]
	}
	return rows, targets
}

// repeat tiles the series n times (used to extend a 24-slot day profile over
// a multi-day horizon).
func repeat(s Series, n int) Series {
	out := make(Series, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return out
}
