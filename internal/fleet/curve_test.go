package fleet

import (
	"context"
	"testing"
	"time"

	"nmdetect/internal/community"
)

// TestFleetCurve guards the claim the fleet exists for (DESIGN.md §12.4):
// meters added as communities of a fixed size cost about linearly. It times
// one SimDay tick (MaxSweeps 2, net metering) over 2, 4 and 8 communities of
// 8 meters; the tick time must grow with total meters (5% noise margin) and
// less than quadratically from the first shape to the last. Each shape
// keeps the fastest of three rounds taken in turn across the shapes, so a
// busy host slows all shapes alike instead of bending the curve.
func TestFleetCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("times full fleet ticks")
	}
	const size, rounds = 8, 3
	widths := []int{2, 4, 8}
	fleets := make([][]*community.Engine, len(widths))
	for i, f := range widths {
		fleets[i] = make([]*community.Engine, f)
		for c := range fleets[i] {
			cfg := community.DefaultConfig(size, CommunitySeed(42, c))
			cfg.GameSweeps = 2
			eng, err := community.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fleets[i][c] = eng
		}
	}
	best := make([]time.Duration, len(widths))
	for r := 0; r < rounds; r++ {
		for i, engines := range fleets {
			start := time.Now()
			if _, err := SimDay(context.Background(), 0, engines, true); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	for i, f := range widths {
		t.Logf("%dx%d (%d meters): %v", f, size, f*size, best[i])
		// A 5% margin: at small shapes a point can sit within noise of its
		// neighbour, and the claim guarded is the shape.
		if i > 0 && float64(best[i]) <= float64(best[i-1])*0.95 {
			t.Errorf("curve not monotone: %d meters at %v <= %d meters at %v", f*size, best[i], widths[i-1]*size, best[i-1])
		}
	}
	ratio := float64(widths[len(widths)-1]) / float64(widths[0])
	if growth := float64(best[len(best)-1]) / float64(best[0]); growth >= ratio*ratio {
		t.Errorf("tick time grew %.1fx over a %.1fx meter increase: quadratic or worse", growth, ratio)
	}
}
