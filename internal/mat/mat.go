// Package mat implements the small dense linear-algebra substrate of the
// LS-SVM trainer.
//
// The reproduction is stdlib-only, so the handful of numeric kernels the
// trainer needs — dot products and distances for the kernel matrix, and one
// LU solve of the saddle system — are implemented here from scratch.
// Matrices are dense, row-major float64; everything is sized for the problem
// at hand (hundreds of rows), not for BLAS-scale workloads.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by the solvers when the system matrix is singular
// to working precision.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// AddDiag adds v to every diagonal element in place (ridge regularization).
func (m *Matrix) AddDiag(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// Dot returns the inner product of two equally-long vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: SqDist length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// LU holds a factorization P·A = L·U with partial pivoting.
type LU struct {
	lu    *Matrix
	pivot []int
}

// FactorLU computes the LU factorization of a square matrix with partial
// pivoting. It returns ErrSingular when a zero pivot is encountered.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic("mat: FactorLU of non-square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot selection.
		p := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > maxAbs {
				maxAbs, p = v, r
			}
		}
		if maxAbs < 1e-14 {
			return nil, ErrSingular
		}
		if p != col {
			ri, rj := lu.Row(p), lu.Row(col)
			for k := range ri {
				ri[k], rj[k] = rj[k], ri[k]
			}
			pivot[p], pivot[col] = pivot[col], pivot[p]
		}
		inv := 1.0 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rr, rc := lu.Row(r), lu.Row(col)
			for k := col + 1; k < n; k++ {
				rr[k] -= f * rc[k]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Solve solves A·x = b using the factorization.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("mat: LU.Solve length mismatch")
	}
	x := make([]float64, n)
	for i, p := range f.pivot {
		x[i] = b[p]
	}
	// Forward: L·y = P·b (unit diagonal).
	for i := 1; i < n; i++ {
		sum := x[i]
		row := f.lu.Row(i)
		for k := 0; k < i; k++ {
			sum -= row[k] * x[k]
		}
		x[i] = sum
	}
	// Backward: U·x = y.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		row := f.lu.Row(i)
		for k := i + 1; k < n; k++ {
			sum -= row[k] * x[k]
		}
		x[i] = sum / row[i]
	}
	return x
}

// Solve solves the square system A·x = b with LU factorization.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
