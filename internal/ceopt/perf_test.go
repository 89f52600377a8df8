package ceopt_test

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/ceopt"
	"nmdetect/internal/rng"
	"nmdetect/internal/timeseries"
)

func benchPrice() timeseries.Series {
	p := make(timeseries.Series, 24)
	for h := range p {
		p[h] = 0.06 + 0.05*math.Sin(float64(h)/24*2*math.Pi)
		if p[h] < 0.02 {
			p[h] = 0.02
		}
	}
	return p
}

// BenchmarkCEOptimizerBattery measures the cross-entropy battery-trajectory
// optimization on its production problem size (24 dimensions).
func BenchmarkCEOptimizerBattery(b *testing.B) {
	price := benchPrice()
	load := make([]float64, 24)
	pv := make([]float64, 24)
	for h := range load {
		load[h] = 1.2
		if h >= 10 && h < 16 {
			pv[h] = 2.5
		}
	}
	objective := func(x []float64) float64 {
		total, prev := 0.0, 2.0
		for t := 0; t < 24; t++ {
			y := load[t] - pv[t] + x[t] - prev
			if y > 0 {
				total += price[t] * y * y
			}
			prev = x[t]
		}
		return total
	}
	lo := make([]float64, 24)
	hi := make([]float64, 24)
	for i := range hi {
		hi[i] = 8
	}
	opts := ceopt.DefaultOptions()
	opts.Samples = 40
	opts.MaxIter = 25
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ceopt.Minimize(context.Background(), objective, lo, hi, nil, rng.New(uint64(i+1)), opts); err != nil {
			b.Fatal(err)
		}
	}
}
