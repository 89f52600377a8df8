package dpsched_test

import (
	"math"
	"testing"

	"nmdetect/internal/appliance"
	"nmdetect/internal/dpsched"
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

// BenchmarkDPScheduler measures the per-appliance dynamic program.
func BenchmarkDPScheduler(b *testing.B) {
	a := &appliance.Appliance{
		Name: "ev", Levels: []float64{1.5, 3.0, 6.0}, Energy: 12, Start: 17, Deadline: 23,
	}
	price := benchPrice()
	cost := func(h int, x float64) float64 { return price[h] * x }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dpsched.Schedule(a, 24, cost); err != nil {
			b.Fatal(err)
		}
	}
}
