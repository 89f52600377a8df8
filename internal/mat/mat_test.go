package mat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"nmdetect/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// The helpers below are test-only linear algebra: matrix construction and
// products that build fixtures and check solutions, plus the Cholesky and
// determinant references pinned by the tests of this file.

// fromRows builds a matrix from a slice of equally-long rows.
func fromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: fromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d != %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// mul returns a·b.
func mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// mulVec returns m·x as a new vector.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// cholesky returns the lower-triangular L with A = L·Lᵀ, or ErrSingular if A
// is not positive definite to working precision.
func cholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// solveSPD solves A·x = b for symmetric positive-definite A by forward and
// back substitution through its Cholesky factor.
func solveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := cholesky(a)
	if err != nil {
		return nil, err
	}
	n := l.Rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x, nil
}

// det returns the determinant of the factorized matrix: the product of U's
// diagonal, negated for an odd row permutation.
func det(f *LU) float64 {
	d := 1.0
	seen := make([]bool, len(f.pivot))
	for i := range f.pivot {
		d *= f.lu.At(i, i)
		// Each permutation cycle of length c contributes c-1 swaps.
		if seen[i] {
			continue
		}
		for j := f.pivot[i]; j != i; j = f.pivot[j] {
			seen[j] = true
			d = -d
		}
		seen[i] = true
	}
	return d
}

func TestFromRowsAndAt(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatal("At returned wrong element")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged fromRows did not panic")
		}
	}()
	fromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := mulVec(a, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("mulVec = %v", got)
	}
}

func TestDotNormAxpy(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if v := []float64{3, 4}; !almostEq(math.Sqrt(Dot(v, v)), 5, 1e-12) {
		t.Fatal("|(3,4)| != 5")
	}
}

func TestSubAddSqDistScale(t *testing.T) {
	a := []float64{5, 7}
	b := []float64{2, 3}
	if SqDist(a, b) != 25 || SqDist(b, a) != 25 {
		t.Fatalf("SqDist = %v", SqDist(a, b))
	}
	if SqDist(a, a) != 0 {
		t.Fatalf("SqDist(a, a) = %v", SqDist(a, a))
	}
}

// randomSPD builds a well-conditioned symmetric positive definite matrix.
func randomSPD(s *rng.Source, n int) *Matrix {
	g := NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = s.Normal(0, 1)
	}
	a := mul(g, transpose(g))
	a.AddDiag(float64(n)) // ensure positive definiteness
	return a
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	s := rng.New(100)
	for _, n := range []int{1, 2, 5, 20} {
		a := randomSPD(s, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = s.Normal(0, 1)
		}
		b := mulVec(a, xTrue)
		x, err := solveSPD(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyFactorization(t *testing.T) {
	s := rng.New(101)
	a := randomSPD(s, 6)
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := mul(l, transpose(l))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !almostEq(llt.At(i, j), a.At(i, j), 1e-9) {
				t.Fatalf("L·Lᵀ != A at %d,%d: %v vs %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
	// Upper triangle of L must be zero.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("L not lower triangular at %d,%d", i, j)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := cholesky(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUSolveRoundTrip(t *testing.T) {
	s := rng.New(102)
	for _, n := range []int{1, 3, 10, 30} {
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = s.Normal(0, 1)
		}
		a.AddDiag(5) // keep well-conditioned
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = s.Normal(0, 2)
		}
		b := mulVec(a, xTrue)
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-7) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUDet(t *testing.T) {
	a := fromRows([][]float64{{4, 3}, {6, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(det(f), -6, 1e-10) {
		t.Fatalf("det = %v, want -6", det(f))
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestDotCommutativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw {
			// Skip inputs whose products could overflow — Inf-Inf sums are NaN.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		return Dot(a, b) == Dot(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSPDRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := solveSPD(a, []float64{1, 1}); err == nil {
		t.Fatal("solveSPD accepted the zero matrix")
	}
}
