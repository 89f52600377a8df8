package svr

import (
	"fmt"

	"nmdetect/internal/mat"
)

// LSSVMOptions configures the least-squares SVM trainer.
type LSSVMOptions struct {
	// Gamma is the regularization weight (larger = closer data fit). The
	// ridge term added to the kernel diagonal is 1/Gamma.
	Gamma float64
	// Kernel to use; nil is rejected.
	Kernel Kernel
}

// DefaultLSSVMOptions returns the forecaster defaults: an RBF kernel of
// moderate width with mild regularization.
func DefaultLSSVMOptions() LSSVMOptions {
	return LSSVMOptions{Gamma: 50, Kernel: RBFKernel{Gamma: 0.5}}
}

// TrainLSSVM fits a least-squares SVM on raw features x with targets y.
// The LS-SVM optimality conditions reduce to the saddle linear system
//
//	| 0   1ᵀ        | |b|   |0|
//	| 1   K + I/γ   | |α| = |y|
//
// which one dense LU solve handles directly (n is a few hundred in the
// forecaster). All training rows become support vectors — LS-SVM gives up
// sparsity for a closed-form fit.
func TrainLSSVM(x [][]float64, y []float64, opts LSSVMOptions) (*Model, error) {
	if err := validateTrainingSet(x, y, opts.Kernel); err != nil {
		return nil, err
	}
	if opts.Gamma <= 0 {
		return nil, fmt.Errorf("svr: ls-svm gamma %v must be positive", opts.Gamma)
	}

	scaler := FitScaler(x)
	xs := scaler.TransformAll(x)
	n := len(xs)

	k := gram(opts.Kernel, xs)
	k.AddDiag(1 / opts.Gamma)

	// Assemble the (n+1)×(n+1) saddle system.
	a := mat.NewMatrix(n+1, n+1)
	rhs := make([]float64, n+1)
	for i := 0; i < n; i++ {
		a.Set(0, i+1, 1)
		a.Set(i+1, 0, 1)
		rhs[i+1] = y[i]
		for j := 0; j < n; j++ {
			a.Set(i+1, j+1, k.At(i, j))
		}
	}
	sol, err := mat.Solve(a, rhs)
	if err != nil {
		return nil, fmt.Errorf("svr: ls-svm system: %w", err)
	}

	return &Model{
		Kernel: opts.Kernel,
		Scaler: scaler,
		SV:     xs,
		Coef:   sol[1:],
		Bias:   sol[0],
	}, nil
}
