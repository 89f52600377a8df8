package game_test

import (
	"context"
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

// benchCommunity draws the seeded n-customer community and its one-day PV
// traces that the timings below solve.
func benchCommunity(tb testing.TB, n int) ([]*household.Customer, [][]float64) {
	tb.Helper()
	gen := household.DefaultGenerator()
	customers, err := gen.Generate(n, rng.New(42))
	if err != nil {
		tb.Fatal(err)
	}
	pv, err := household.CommunityPVTraces(customers, solar.DefaultModel(), 1, rng.New(43))
	if err != nil {
		tb.Fatal(err)
	}
	return customers, pv
}

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

// BenchmarkGameSolveNetMetering measures one Algorithm-1 solve (DP + CE per
// customer, Gauss-Seidel sweeps) for a 50-home community.
func BenchmarkGameSolveNetMetering(b *testing.B) {
	customers, pv := benchCommunity(b, 50)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, true)
	cfg.MaxSweeps = 2
	price := benchPrice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(context.Background(), customers, price, pv, cfg, rng.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead is the observability overhead budget (DESIGN.md
// §9.3): a live event sink may slow the 24-customer block-Jacobi solve
// (JacobiBlock 8, Workers 4, MaxSweeps 2) by at most 5%. The sink writes to
// io.Discard, so the cost measured is the instrumentation, not I/O. After
// one warm-up solve each way, it times 41 events-off/events-on pairs,
// flipping which runs first each pair, and fails when the median on/off
// ratio exceeds 1.05. Pairing cancels the drift of a shared host that
// separate runs pick up. Single pair ratios still spread by ±10% on two
// vCPUs; 41 pairs keep the median within about ±3% from run to run. One
// run is the whole measurement, and it writes no file:
//
//	go test -run '^$' -bench BenchmarkObsOverhead -benchtime 1x ./internal/game
func BenchmarkObsOverhead(b *testing.B) {
	const pairs, budget = 41, 1.05
	customers, pv := benchCommunity(b, 24)
	q, _ := tariff.NewQuadratic(1.5)
	cfg := game.DefaultConfig(q, true)
	cfg.MaxSweeps = 2
	cfg.JacobiBlock = 8
	cfg.Workers = 4
	price := benchPrice()
	sink := obs.NewSink(io.Discard)
	defer sink.Close()
	off, on := context.Background(), obs.With(context.Background(), sink)
	solve := func(ctx context.Context) float64 {
		start := time.Now()
		if _, err := game.Solve(ctx, customers, price, pv, cfg, rng.New(7)); err != nil {
			b.Fatal(err)
		}
		return float64(time.Since(start))
	}
	solve(off)
	solve(on)
	ratios := make([]float64, pairs)
	for i := range ratios {
		if i%2 == 0 {
			offT := solve(off)
			ratios[i] = solve(on) / offT
		} else {
			onT := solve(on)
			ratios[i] = onT / solve(off)
		}
	}
	slices.Sort(ratios)
	median := ratios[pairs/2]
	b.ReportMetric(median, "on/off")
	if median > budget {
		b.Fatalf("events on cost %+.1f%% (median of %d pairs), over the %.0f%% budget",
			(median-1)*100, pairs, (budget-1)*100)
	}
}

// TestScaleCurve guards the claim the hierarchical solver exists for
// (DESIGN.md §11.4): solve time grows with community size, and less than
// quadratically. It times one net-metering solve (MaxSweeps 2, reused
// workspace) at 16, 32 and 64 customers with 8 customers per shard, so every
// point runs sharded. Each point keeps the fastest of three rounds taken in
// turn across the sizes, so a busy host slows all sizes alike instead of
// bending the curve.
func TestScaleCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("times full solves")
	}
	const perShard, rounds = 8, 3
	sizes := []int{16, 32, 64}
	q, _ := tariff.NewQuadratic(1.5)
	price := benchPrice()
	best := make([]time.Duration, len(sizes))
	solvers := make([]func() error, len(sizes))
	for i, n := range sizes {
		customers, pv := benchCommunity(t, n)
		cfg := game.DefaultConfig(q, true)
		cfg.MaxSweeps = 2
		cfg.Shards = n / perShard
		ws := game.NewWorkspace()
		solvers[i] = func() error {
			_, err := game.SolveWS(context.Background(), ws, customers, price, pv, cfg, rng.New(7))
			return err
		}
	}
	for r := 0; r < rounds; r++ {
		for i, solve := range solvers {
			start := time.Now()
			if err := solve(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	for i, n := range sizes {
		t.Logf("N=%d shards=%d: %v", n, n/perShard, best[i])
		// A 5% margin: at small sizes a point can sit within noise of its
		// neighbour, and the claim guarded is the shape.
		if i > 0 && float64(best[i]) <= float64(best[i-1])*0.95 {
			t.Errorf("curve not monotone: N=%d at %v <= N=%d at %v", n, best[i], sizes[i-1], best[i-1])
		}
	}
	ratio := float64(sizes[len(sizes)-1]) / float64(sizes[0])
	if growth := float64(best[len(best)-1]) / float64(best[0]); growth >= ratio*ratio {
		t.Errorf("solve time grew %.1fx over a %.1fx size increase: quadratic or worse", growth, ratio)
	}
}
