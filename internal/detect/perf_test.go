package detect_test

import (
	"testing"

	"nmdetect/internal/detect"
	"nmdetect/internal/pomdp"
)

func benchDetectionModel(b *testing.B) *pomdp.Model {
	b.Helper()
	params := detect.DefaultModelParams(100, 0.01, 0.3)
	params.CalibSamples = 1500
	m, err := detect.BuildModel(params)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkBeliefUpdate measures the per-slot Bayesian filter step.
func BenchmarkBeliefUpdate(b *testing.B) {
	m := benchDetectionModel(b)
	belief := pomdp.UniformBelief(m.NumStates)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		belief, _ = m.Update(belief, i%2, i%m.NumObs)
	}
}
