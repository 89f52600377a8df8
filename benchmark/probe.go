package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host-speed probe. The benchmark's reference host is a small VM on
// shared hardware whose cores run the same fixed work up to 2x slower or
// faster over tens of seconds, slowly enough that a run's neighbouring
// seconds share its speed. The probe times a fixed kernel on every core
// while the program under test is idle, just before and just after each
// measured phase, and the phase's time metrics are scaled by
// probeNominal / (mean probe time). The kernel is the benchmark's own code,
// so no change to the program can move it.
const (
	probeIters   = 280_000_000
	probeNominal = 300 * time.Millisecond
)

// probeSink keeps the kernel's result live.
var probeSink float64

// probeReps splits a probe into this many kernel runs and keeps the median,
// so a momentary stall of one run does not skew a whole phase's factor.
const probeReps = 3

// probe returns the median kernel time scaled to the full probeIters.
func probe() time.Duration {
	runs := make([]time.Duration, probeReps)
	for r := range runs {
		runs[r] = probeOnce(probeIters / probeReps)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	return runs[probeReps/2] * probeReps
}

// probeOnce runs iters kernel steps split over every core at once and
// returns the wall time.
func probeOnce(iters int) time.Duration {
	n := runtime.GOMAXPROCS(0)
	per := iters / n
	sums := make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := 0.0
			for i := 0; i < per; i++ {
				s += math.Sqrt(float64(i + w))
			}
			sums[w] = s
		}(w)
	}
	wg.Wait()
	took := time.Since(start)
	for _, s := range sums {
		probeSink += s
	}
	return took
}

// speed is the probe's verdict on one phase: the factor that scales the
// phase's measured times to the nominal host (below 1 when the host ran
// slow).
type speed struct{ before, after time.Duration }

func (s speed) factor() float64 {
	return float64(probeNominal) / (float64(s.before+s.after) / 2)
}

// times scales a measured time; rate scales a measured rate.
func (s speed) times(v float64) float64 { return v * s.factor() }
func (s speed) rate(v float64) float64  { return v / s.factor() }

func (s speed) String() string {
	return fmt.Sprintf("probe %.0f/%.0f ms, factor %.3f", ms(s.before), ms(s.after), s.factor())
}
