package svr

import (
	"math"
	"testing"

	"nmdetect/internal/metrics"
	"nmdetect/internal/rng"
)

func TestKernels(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	if got := (LinearKernel{}).Eval(a, b); got != 11 {
		t.Fatalf("linear = %v", got)
	}
	rbf := RBFKernel{Gamma: 0.5}
	want := math.Exp(-0.5 * 8) // ‖a−b‖² = 8
	if got := rbf.Eval(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("rbf = %v, want %v", got, want)
	}
	if got := rbf.Eval(a, a); got != 1 {
		t.Fatalf("rbf self = %v", got)
	}
	poly := PolyKernel{Degree: 2, Coef: 1}
	if got := poly.Eval(a, b); got != 144 {
		t.Fatalf("poly = %v", got)
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s := FitScaler(x)
	xs := s.TransformAll(x)
	// First column: mean 3, standardized to mean 0.
	sum := 0.0
	for _, r := range xs {
		sum += r[0]
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("standardized mean = %v", sum/3)
	}
	// Constant column: centered only, no division blow-up.
	for _, r := range xs {
		if r[1] != 0 {
			t.Fatalf("constant column transformed to %v", r[1])
		}
	}
}

func TestScalerEmptyAndMismatch(t *testing.T) {
	s := FitScaler(nil)
	out := s.Transform([]float64{1, 2})
	if out[0] != 1 || out[1] != 2 {
		t.Fatal("empty scaler should pass through")
	}
	s2 := FitScaler([][]float64{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	s2.Transform([]float64{1})
}

// sine1D builds a noisy sine regression problem.
func sine1D(n int, noise float64, seed uint64) ([][]float64, []float64) {
	s := rng.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := 6 * float64(i) / float64(n)
		x[i] = []float64{v}
		y[i] = math.Sin(v) + s.Normal(0, noise)
	}
	return x, y
}

// predictAll evaluates m at every row.
func predictAll(m *Model, rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = m.Predict(r)
	}
	return out
}

func TestLSSVMFitsSine(t *testing.T) {
	x, y := sine1D(80, 0.02, 1)
	m, err := TrainLSSVM(x, y, DefaultLSSVMOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := predictAll(m, x)
	if rmse := metrics.Must(metrics.RMSE(pred, y)); rmse > 0.08 {
		t.Fatalf("train RMSE = %v", rmse)
	}
	// Interpolation between training points.
	if got := m.Predict([]float64{1.5707}); math.Abs(got-1.0) > 0.1 {
		t.Fatalf("sin(π/2) predicted as %v", got)
	}
}

func TestLSSVMLinearTrend(t *testing.T) {
	// LS-SVM with a linear kernel recovers a linear function.
	x := make([][]float64, 30)
	y := make([]float64, 30)
	for i := range x {
		v := float64(i)
		x[i] = []float64{v}
		y[i] = 2*v + 5
	}
	opts := LSSVMOptions{Gamma: 1000, Kernel: LinearKernel{}}
	m, err := TrainLSSVM(x, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{40}); math.Abs(got-85) > 1.5 {
		t.Fatalf("extrapolated 40 -> %v, want ~85", got)
	}
}

func TestLSSVMRegularizationControlsFit(t *testing.T) {
	x, y := sine1D(60, 0.3, 2)
	tight, err := TrainLSSVM(x, y, LSSVMOptions{Gamma: 1e4, Kernel: RBFKernel{Gamma: 5}})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := TrainLSSVM(x, y, LSSVMOptions{Gamma: 0.1, Kernel: RBFKernel{Gamma: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Must(metrics.RMSE(predictAll(tight, x), y)) >= metrics.Must(metrics.RMSE(predictAll(loose, x), y)) {
		t.Fatal("higher gamma should fit training data tighter")
	}
}

func TestLSSVMErrors(t *testing.T) {
	x := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	if _, err := TrainLSSVM(nil, nil, DefaultLSSVMOptions()); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := TrainLSSVM(x, y[:1], DefaultLSSVMOptions()); err == nil {
		t.Error("mismatched targets accepted")
	}
	if _, err := TrainLSSVM([][]float64{{1}, {2, 3}}, y, DefaultLSSVMOptions()); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := TrainLSSVM(x, y, LSSVMOptions{Gamma: 0, Kernel: LinearKernel{}}); err == nil {
		t.Error("zero gamma accepted")
	}
	if _, err := TrainLSSVM(x, y, LSSVMOptions{Gamma: 1, Kernel: nil}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := TrainLSSVM([][]float64{{}, {}}, y, DefaultLSSVMOptions()); err == nil {
		t.Error("zero-dimensional features accepted")
	}
}

func TestModelMultivariate(t *testing.T) {
	// f(x) = x₀ + 2x₁ learned from 2-D samples.
	s := rng.New(7)
	n := 100
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := s.Range(0, 5), s.Range(0, 5)
		x[i] = []float64{a, b}
		y[i] = a + 2*b
	}
	m, err := TrainLSSVM(x, y, LSSVMOptions{Gamma: 100, Kernel: RBFKernel{Gamma: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]float64{2, 3})
	if math.Abs(got-8) > 0.3 {
		t.Fatalf("f(2,3) = %v, want ~8", got)
	}
}
