package game

import (
	"context"
	"fmt"
	"math"

	"nmdetect/internal/household"
	"nmdetect/internal/obs"
	"nmdetect/internal/parallel"
	"nmdetect/internal/rng"
	"nmdetect/internal/timeseries"
)

// Range is a half-open customer index interval [Start, End) — one shard of a
// hierarchical solve.
type Range struct{ Start, End int }

// ShardPlan partitions n customers into at most `shards` contiguous spans of
// near-equal size (the first n%shards spans are one customer larger). The
// plan is a pure function of (n, shards): it never depends on Workers, the
// runtime, or anything drawn from an RNG, so the shard partition is part of
// the deterministic solution path exactly like JacobiBlock's block partition.
// shards is clamped to [1, n]; n must be positive.
func ShardPlan(n, shards int) []Range {
	if n < 1 {
		panic(fmt.Sprintf("game: shard plan for %d customers", n)) // lint:allow-panic — unreachable: SolveMixedWS validates len(customers) > 1 before routing here
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	plan := make([]Range, shards)
	base, rem := n/shards, n%shards
	start := 0
	for s := range plan {
		size := base
		if s < rem {
			size++
		}
		plan[s] = Range{Start: start, End: start + size}
		start += size
	}
	return plan
}

// solveHierarchical is the outer tier of a sharded solve (Config.Shards > 1):
// the community is partitioned by ShardPlan, each shard runs the flat solver
// on its own sub-community (the inner tier — Gauss-Seidel or block-Jacobi,
// per Config.JacobiBlock), and the shards interact only through their
// per-slot aggregate trading vectors, exchanged in an outer Jacobi loop via
// Config.ExternalY. Coupling state is O(H) per shard per outer sweep; no
// customer ever observes another shard's per-customer detail.
//
// Determinism: the shard partition is a pure function of (N, Shards); shard
// inner solves draw CE randomness from sources derived per (outer sweep,
// shard) — derivation never advances the parent — and write only their own
// results slot; aggregates are recomputed in shard index order after a full
// barrier. The solution is therefore a function of the configuration knobs
// (Shards, OuterSweeps, OuterTol, JacobiBlock) and never of Workers or the
// fan-out schedule.
func solveHierarchical(ctx context.Context, ws *Workspace, customers []*household.Customer, prices []timeseries.Series, pv [][]float64, cfg Config, src *rng.Source) (*Result, error) {
	sink := obs.From(ctx)
	defer sink.Span("game.solve.outer")()

	n := len(customers)
	h := len(prices[0])
	plan := ShardPlan(n, cfg.Shards)
	shards := len(plan)
	if ws == nil {
		ws = NewWorkspace()
	}
	children := ws.shardChildren(shards)

	outerMax := cfg.OuterSweeps
	if outerMax < 1 {
		outerMax = 2
	}
	outerTol := cfg.OuterTol
	if outerTol <= 0 {
		outerTol = cfg.Tol
	}

	// Warm-start aggregates from the same greedy placement the flat solver
	// initializes from: the first outer sweep already prices each shard
	// against a realistic (if unrefined) picture of its neighbors instead of
	// an empty grid.
	agg := make([][]float64, shards)
	loadBuf := make([]float64, h)
	for s, r := range plan {
		a := make([]float64, h)
		for i := r.Start; i < r.End; i++ {
			c := customers[i]
			for t := 0; t < h; t++ {
				loadBuf[t] = c.BaseLoadAt(t)
			}
			for _, ap := range c.Appliances {
				if err := greedyFill(ap, loadBuf); err != nil {
					return nil, fmt.Errorf("game: customer %d: %w", i, err)
				}
			}
			for t := 0; t < h; t++ {
				y := loadBuf[t]
				if cfg.NetMetering {
					y -= pv[i][t]
				}
				a[t] += y
			}
		}
		agg[s] = a
	}

	results := make([]*Result, shards)
	exts := make([][]float64, shards)
	for s := range exts {
		exts[s] = make([]float64, h)
	}
	totalAgg := make([]float64, h)

	converged := false
	outerDone := 0
	for sweep := 0; sweep < outerMax; sweep++ {
		outerDone = sweep + 1
		for t := 0; t < h; t++ {
			sum := 0.0
			for s := 0; s < shards; s++ {
				sum += agg[s][t]
			}
			if cfg.ExternalY != nil {
				sum += cfg.ExternalY[t]
			}
			totalAgg[t] = sum
		}
		// Jacobi fan-out: every shard solves against the aggregates frozen at
		// sweep start. Each shard writes only results[s] and its own exts[s]
		// buffer, reads only frozen state, and owns child workspace s.
		err := parallel.ForEach(ctx, cfg.Workers, shards, func(s int) error {
			r := plan[s]
			ext := exts[s]
			for t := 0; t < h; t++ {
				ext[t] = totalAgg[t] - agg[s][t]
			}
			scfg := cfg
			scfg.Shards, scfg.OuterSweeps, scfg.OuterTol = 0, 0, 0
			scfg.ExternalY = ext
			var spv [][]float64
			if pv != nil {
				spv = pv[r.Start:r.End]
			}
			var ssrc *rng.Source
			if src != nil {
				ssrc = src.Derive(fmt.Sprintf("hier-%d-%d", sweep, s))
			}
			sub, err := SolveMixedWS(ctx, children[s], customers[r.Start:r.End], prices[r.Start:r.End], spv, scfg, ssrc)
			if err != nil {
				return fmt.Errorf("game: shard %d (customers %d..%d): %w", s, r.Start, r.End-1, err)
			}
			results[s] = sub
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Barrier passed: refresh aggregates in shard index order. A shard's
		// new aggregate is its sub-result's GridDemand — already summed over
		// the shard's customers in index order by the flat solver. The outer
		// residual is the largest per-slot aggregate move of any shard.
		maxMove := 0.0
		for s := range plan {
			sub := results[s]
			for t := 0; t < h; t++ {
				if d := math.Abs(sub.GridDemand[t] - agg[s][t]); d > maxMove {
					maxMove = d
				}
				agg[s][t] = sub.GridDemand[t]
			}
			// Per-shard counters; the fmt.Sprintf key stays behind the nil
			// check so the disabled path allocates nothing.
			if sink != nil {
				sink.Count(fmt.Sprintf("game.shard.%03d.solves", s), 1)
				sink.Count(fmt.Sprintf("game.shard.%03d.sweeps", s), int64(sub.Sweeps))
			}
		}
		sink.Count("game.outer.sweeps", 1)
		sink.Observe("game.outer.residual", maxMove)
		if maxMove < outerTol {
			converged = true
			break
		}
	}

	// Assemble the community result from the final outer iteration. Shard
	// sub-results own their memory (the flat solver's contract), so their
	// rows are adopted directly; community totals are re-summed over the full
	// customer index order, matching the flat solver's final reduction shape.
	res := &Result{
		Load:            make(timeseries.Series, h),
		GridDemand:      make(timeseries.Series, h),
		CustomerLoad:    make([][]float64, n),
		CustomerTrading: make([][]float64, n),
		BatteryTraj:     make([][]float64, n),
		Cost:            make([]float64, n),
		Outer:           outerDone,
		Converged:       converged,
	}
	for s, r := range plan {
		sub := results[s]
		copy(res.CustomerLoad[r.Start:r.End], sub.CustomerLoad)
		copy(res.CustomerTrading[r.Start:r.End], sub.CustomerTrading)
		copy(res.BatteryTraj[r.Start:r.End], sub.BatteryTraj)
		copy(res.Cost[r.Start:r.End], sub.Cost)
		if sub.Sweeps > res.Sweeps {
			res.Sweeps = sub.Sweeps
		}
	}
	for t := 0; t < h; t++ {
		sumL, sumY := 0.0, 0.0
		for i := 0; i < n; i++ {
			sumL += res.CustomerLoad[i][t]
			sumY += res.CustomerTrading[i][t]
		}
		res.Load[t] = sumL
		res.GridDemand[t] = sumY
	}
	return res, nil
}
