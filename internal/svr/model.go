package svr

import (
	"errors"
	"fmt"
)

// Model is a trained kernel regression model f(x) = Σᵢ coefᵢ·k(svᵢ, x) + b.
type Model struct {
	Kernel Kernel
	Scaler *Scaler
	SV     [][]float64 // support vectors (already standardized)
	Coef   []float64   // dual coefficients
	Bias   float64
}

// Predict evaluates the model at one raw (unscaled) feature vector.
func (m *Model) Predict(row []float64) float64 {
	x := m.Scaler.Transform(row)
	out := m.Bias
	for i, sv := range m.SV {
		if m.Coef[i] == 0 {
			continue
		}
		out += m.Coef[i] * m.Kernel.Eval(sv, x)
	}
	return out
}

// validateTrainingSet performs the input checks of the trainer.
func validateTrainingSet(x [][]float64, y []float64, k Kernel) error {
	if len(x) == 0 {
		return errors.New("svr: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("svr: %d rows but %d targets", len(x), len(y))
	}
	d := len(x[0])
	if d == 0 {
		return errors.New("svr: zero-dimensional features")
	}
	for i, row := range x {
		if len(row) != d {
			return fmt.Errorf("svr: ragged row %d (%d features, want %d)", i, len(row), d)
		}
	}
	if k == nil {
		return errors.New("svr: nil kernel")
	}
	return nil
}
