// Package game implements the Net Metering Aware Energy Consumption
// Scheduling Game of Section 3.1 and its iterative solution (Algorithm 1).
//
// Each customer n minimizes the monetary cost Σₕ Cₙʰ of Problem P1 by
// choosing appliance power levels xₘʰ (via the dynamic-programming scheduler,
// package dpsched) and a battery-storage trajectory bₙ (via cross-entropy
// optimization, package ceopt), while the community total trading Σᵢ yᵢʰ —
// the shared information of the game — is held at its latest value. Customers
// update in Gauss-Seidel sweeps until the total trading vector converges;
// each best response can only lower that customer's cost, which empirically
// drives the quadratic-pricing game to a stable point in a handful of sweeps
// (Mohsenian-Rad et al. [9] prove convergence for the purchase-only convex
// case).
//
// The sweep schedule generalizes to block-Jacobi (Config.JacobiBlock): the
// customer order is partitioned into fixed consecutive blocks, best responses
// within a block are computed against the trading total frozen at block start
// — and may therefore run concurrently (Config.Workers) — and the updates are
// applied in index order. Block size 1 is exactly the sequential Gauss-Seidel
// schedule. Because each customer's CE stream is derived from (sweep, index)
// and updates are applied in index order, the solution is a function of the
// block size only: for a fixed seed and block size the output is bitwise
// identical for every worker count.
//
// Disabling net metering (Config.NetMetering = false) removes PV, battery and
// selling from the model: each customer's trading equals their consumption,
// which is the community model of [9] and [8] — the baseline the paper's
// NM-blind detector reasons with.
package game

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nmdetect/internal/appliance"
	"nmdetect/internal/battery"
	"nmdetect/internal/ceopt"
	"nmdetect/internal/dpsched"
	"nmdetect/internal/household"
	"nmdetect/internal/obs"
	"nmdetect/internal/parallel"
	"nmdetect/internal/rng"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
	"nmdetect/internal/watchdog"
)

// ErrDiverged re-exports the shared watchdog sentinel: a solve that returns
// an error wrapping it left the healthy numerical region (typically because
// of non-finite prices or PV inputs) and exhausted its retry budget.
var ErrDiverged = watchdog.ErrDiverged

// Config tunes the game solver.
type Config struct {
	// Tariff is the quadratic cost model (with its sell-back divisor W).
	Tariff tariff.Quadratic
	// NetMetering enables PV generation, battery scheduling and selling.
	NetMetering bool
	// BatteryInitFrac is the initial state of charge as a fraction of
	// capacity at slot 0.
	BatteryInitFrac float64
	// MaxSweeps bounds the Gauss-Seidel best-response sweeps.
	MaxSweeps int
	// Tol is the convergence tolerance on the per-slot total trading change
	// (kW) between consecutive sweeps.
	Tol float64
	// CE configures the battery trajectory optimizer.
	CE ceopt.Options
	// Workers bounds the number of concurrent best-response computations
	// inside one Jacobi block. 0 selects runtime.NumCPU(); 1 computes
	// sequentially. The worker count is purely an execution knob: it never
	// affects the solution (see JacobiBlock).
	Workers int
	// JacobiBlock is the block size of the best-response sweep partition.
	// 0 or 1 selects the sequential Gauss-Seidel schedule (the reference
	// semantics every existing result was produced with). Values > 1 freeze
	// the community trading total at block start so the block's best
	// responses are independent and can run concurrently; larger blocks
	// expose more parallelism but use staler totals, which can cost extra
	// sweeps — and a whole-community block may oscillate between
	// cost-equivalent schedules without ever satisfying the trading-delta
	// convergence test, so certify Jacobi solutions with EquilibriumGap
	// rather than the Converged flag. The block size — never Workers —
	// determines the solution.
	JacobiBlock int
	// Shards partitions the community into that many contiguous near-equal
	// shards and solves hierarchically: each shard runs its own inner
	// best-response iteration (this solver, with the shard's sub-community)
	// while the shards exchange only their per-slot aggregate trading
	// vectors in an outer Jacobi loop — O(H) of coupling state per shard per
	// outer sweep instead of one flat O(N·H) neighborhood. Values <= 1 (the
	// default) select the flat solver, bitwise identical to the historical
	// engine; like JacobiBlock — and unlike Workers — a larger value selects
	// a (deterministic) different equilibrium path. Shards solve
	// concurrently under Workers; per-shard CE streams are derived from
	// (outer sweep, shard), so the fan-out schedule never affects bits.
	Shards int
	// OuterSweeps bounds the outer inter-shard Jacobi sweeps of a
	// hierarchical solve (Shards > 1). 0 selects the default of 2: one
	// uncoupled-warm-start pass refined by one coupled pass.
	OuterSweeps int
	// OuterTol is the convergence tolerance (kW, max-norm) on the per-shard
	// aggregate trading change between consecutive outer sweeps. 0 selects
	// Tol.
	OuterTol float64
	// ExternalY is a fixed per-slot trading aggregate from outside this
	// community that every customer's best response prices against, exactly
	// as if it were another (frozen) player's trading. nil — the default —
	// adds nothing and leaves the solve bitwise identical to the historical
	// solver. The hierarchical solver uses this hook to couple shards; it is
	// exported so harnesses can embed a community in a larger neighborhood.
	// Must have length H when non-nil. Result.Load/GridDemand still sum the
	// community's own customers only.
	ExternalY []float64
}

// DefaultConfig returns the solver configuration used by the experiments.
func DefaultConfig(t tariff.Quadratic, netMetering bool) Config {
	ce := ceopt.DefaultOptions()
	ce.Samples = 40
	ce.MaxIter = 25
	return Config{
		Tariff:          t,
		NetMetering:     netMetering,
		BatteryInitFrac: 0.3,
		MaxSweeps:       4,
		Tol:             1.0,
		CE:              ce,
	}
}

// Validate checks the configuration. Range checks are written to reject NaN
// explicitly — NaN passes every ordered comparison, so `x < 0 || x > 1` alone
// would admit it.
func (c Config) Validate() error {
	if math.IsNaN(c.BatteryInitFrac) || c.BatteryInitFrac < 0 || c.BatteryInitFrac > 1 {
		return fmt.Errorf("game: battery init fraction %v out of [0,1]", c.BatteryInitFrac)
	}
	if c.MaxSweeps < 1 {
		return fmt.Errorf("game: max sweeps %d must be positive", c.MaxSweeps)
	}
	if math.IsNaN(c.Tol) || math.IsInf(c.Tol, 0) || c.Tol <= 0 {
		return fmt.Errorf("game: tolerance %v must be positive and finite", c.Tol)
	}
	if math.IsNaN(c.Tariff.W) || math.IsInf(c.Tariff.W, 0) || c.Tariff.W < 1 {
		return fmt.Errorf("game: tariff sell-back divisor %v must be >= 1 and finite", c.Tariff.W)
	}
	if c.Workers < 0 {
		return fmt.Errorf("game: negative worker count %d", c.Workers)
	}
	if c.JacobiBlock < 0 {
		return fmt.Errorf("game: negative Jacobi block size %d", c.JacobiBlock)
	}
	if c.Shards < 0 {
		return fmt.Errorf("game: negative shard count %d", c.Shards)
	}
	if c.OuterSweeps < 0 {
		return fmt.Errorf("game: negative outer sweep bound %d", c.OuterSweeps)
	}
	if math.IsNaN(c.OuterTol) || math.IsInf(c.OuterTol, 0) || c.OuterTol < 0 {
		return fmt.Errorf("game: outer tolerance %v must be finite and non-negative", c.OuterTol)
	}
	if !watchdog.AllFinite(c.ExternalY) {
		return errors.New("game: external trading aggregate has non-finite entries")
	}
	return c.CE.Validate()
}

// Result holds the solved community schedule.
type Result struct {
	// Load is the community consumption Lₕ = Σₙ lₙʰ per slot.
	Load timeseries.Series
	// GridDemand is the community net purchase Σₙ yₙʰ per slot (equals Load
	// minus renewable self-use and battery shifting; equals Load exactly
	// when net metering is disabled).
	GridDemand timeseries.Series
	// CustomerLoad[n][h] is lₙʰ.
	CustomerLoad [][]float64
	// CustomerTrading[n][h] is yₙʰ.
	CustomerTrading [][]float64
	// BatteryTraj[n] is bₙ (length H+1); nil entries for customers without
	// batteries or with net metering disabled.
	BatteryTraj [][]float64
	// Cost[n] is customer n's final monetary cost.
	Cost []float64
	// Sweeps is the number of best-response sweeps performed. For a
	// hierarchical solve it is the largest inner sweep count any shard used
	// during the final outer iteration.
	Sweeps int
	// Outer is the number of inter-shard Jacobi sweeps a hierarchical solve
	// performed; 0 for flat solves (Shards <= 1).
	Outer int
	// Converged reports whether the trading vector stabilized within Tol
	// (flat solves) or the per-shard aggregates stabilized within OuterTol
	// (hierarchical solves).
	Converged bool
}

// custWorkspace holds the per-customer scratch memory one best response
// needs: the DP tables (dpsched), the CE population (ceopt), the trajectory /
// base-load / cost-snapshot buffers of bestResponse, and the block-Jacobi
// frozen neighborhood total. All buffers grow monotonically; none escape into
// Results.
type custWorkspace struct {
	dp dpsched.Workspace
	ce ceopt.Workspace

	curTraj  []float64
	baseLoad []float64
	snapshot []float64
	lo       []float64
	hi       []float64
	init     []float64
	yOther   []float64 // block-Jacobi scratch: the frozen neighborhood total
}

// Workspace holds per-customer solver scratch that SolveWS/SolveMixedWS reuse
// across calls — across sweeps within a solve and across solves (e.g. the
// per-day simulation loop). Reuse changes nothing about results: a Result
// fully owns its memory (loads, trading, trajectories are freshly allocated),
// so Results from earlier solves remain valid after the workspace is reused,
// and a solve through a reused workspace is bitwise identical to one through
// a fresh workspace. A Workspace is NOT safe for concurrent solves; give each
// concurrent solve its own. The per-customer entries are handed to the
// (possibly concurrent) best responses one-to-one, which is safe because each
// customer index is processed by exactly one goroutine per block.
type Workspace struct {
	cust []*custWorkspace
	// shards holds the lazily created child workspaces of a hierarchical
	// solve, one per shard. Each shard's inner solve is driven by exactly
	// one goroutine per outer sweep, so handing child s to shard s keeps the
	// not-concurrency-safe contract intact.
	shards []*Workspace
}

// NewWorkspace returns an empty solver workspace; per-customer scratch is
// allocated on first use and reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure grows the per-customer slice to n entries. Called before any
// concurrent phase so workers only index, never append.
func (w *Workspace) ensure(n int) {
	for len(w.cust) < n {
		w.cust = append(w.cust, &custWorkspace{})
	}
}

// shardChildren grows the per-shard child workspaces to s entries and
// returns them. Children are created once and reused across outer sweeps and
// across solves, like the per-customer scratch.
func (w *Workspace) shardChildren(s int) []*Workspace {
	for len(w.shards) < s {
		w.shards = append(w.shards, NewWorkspace())
	}
	return w.shards[:s]
}

// Solve runs Algorithm 1. price is the guideline price over the horizon
// (len == H ≥ 24); pv[n] is customer n's renewable forecast θₙ (ignored when
// net metering is disabled; may be nil then). The source drives CE sampling
// and must not be nil when net metering is enabled.
//
// The context is polled at best-response granularity (every Gauss-Seidel
// customer / Jacobi block, and inside each CE iteration): cancelling it
// aborts the solve well within one sweep and returns ctx.Err(). A nil ctx
// never cancels, and cancellation never alters the result of a solve that
// completes.
func Solve(ctx context.Context, customers []*household.Customer, price timeseries.Series, pv [][]float64, cfg Config, src *rng.Source) (*Result, error) {
	return SolveWS(ctx, nil, customers, price, pv, cfg, src)
}

// SolveWS is Solve with a reusable solver workspace. A nil workspace is
// equivalent to a fresh one (and to Solve). See Workspace for the reuse
// contract.
func SolveWS(ctx context.Context, ws *Workspace, customers []*household.Customer, price timeseries.Series, pv [][]float64, cfg Config, src *rng.Source) (*Result, error) {
	if len(customers) == 0 {
		return nil, errors.New("game: empty community")
	}
	prices := make([]timeseries.Series, len(customers))
	for i := range prices {
		prices[i] = price
	}
	return SolveMixedWS(ctx, ws, customers, prices, pv, cfg, src)
}

// SolveMixed runs Algorithm 1 with per-customer guideline prices — the
// situation under a pricing cyberattack, where hacked meters receive a
// manipulated price while intact meters receive the published one. Each
// customer best-responds to their own price; all interact through the shared
// community trading total. Cancellation semantics match Solve.
func SolveMixed(ctx context.Context, customers []*household.Customer, prices []timeseries.Series, pv [][]float64, cfg Config, src *rng.Source) (*Result, error) {
	return SolveMixedWS(ctx, nil, customers, prices, pv, cfg, src)
}

// SolveMixedWS is SolveMixed with a reusable solver workspace. A nil
// workspace is equivalent to a fresh one.
func SolveMixedWS(ctx context.Context, ws *Workspace, customers []*household.Customer, prices []timeseries.Series, pv [][]float64, cfg Config, src *rng.Source) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sink := obs.From(ctx)
	defer sink.Span("game.solve")()
	if len(customers) == 0 {
		return nil, errors.New("game: empty community")
	}
	if len(prices) != len(customers) {
		return nil, fmt.Errorf("game: %d price vectors for %d customers", len(prices), len(customers))
	}
	h := len(prices[0])
	if h < 24 {
		return nil, fmt.Errorf("game: horizon %d shorter than a day", h)
	}
	for n, p := range prices {
		if len(p) != h {
			return nil, fmt.Errorf("game: price vector %d has length %d, want %d", n, len(p), h)
		}
	}
	if cfg.NetMetering {
		if src == nil {
			return nil, errors.New("game: nil random source with net metering enabled")
		}
		if len(pv) != len(customers) {
			return nil, fmt.Errorf("game: pv traces %d != customers %d", len(pv), len(customers))
		}
		for n, tr := range pv {
			if len(tr) != h {
				return nil, fmt.Errorf("game: pv trace %d has length %d, want %d", n, len(tr), h)
			}
		}
	}
	if cfg.ExternalY != nil && len(cfg.ExternalY) != h {
		return nil, fmt.Errorf("game: external trading aggregate has length %d, want %d", len(cfg.ExternalY), h)
	}
	// Hierarchical route: with more than one effective shard the solve is the
	// outer Jacobi loop of hier.go; a single-shard plan (Shards <= 1, or a
	// one-customer community) falls through to the flat solver untouched, so
	// the shards<=1 path stays bitwise identical to the historical engine.
	if cfg.Shards > 1 && len(customers) > 1 {
		return solveHierarchical(ctx, ws, customers, prices, pv, cfg, src)
	}

	n := len(customers)
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(n)
	res := &Result{
		Load:            make(timeseries.Series, h),
		GridDemand:      make(timeseries.Series, h),
		CustomerLoad:    make([][]float64, n),
		CustomerTrading: make([][]float64, n),
		BatteryTraj:     make([][]float64, n),
		Cost:            make([]float64, n),
	}

	// Initialization: base load plus earliest-feasible appliance placement;
	// trading = load − θ (flat battery).
	totalY := make([]float64, h)
	for i, c := range customers {
		load := make([]float64, h)
		for t := 0; t < h; t++ {
			load[t] = c.BaseLoadAt(t)
		}
		for _, a := range c.Appliances {
			if err := greedyFill(a, load); err != nil {
				return nil, fmt.Errorf("game: customer %d: %w", i, err)
			}
		}
		res.CustomerLoad[i] = load
		y := make([]float64, h)
		for t := 0; t < h; t++ {
			y[t] = load[t]
			if cfg.NetMetering {
				y[t] -= pv[i][t]
			}
		}
		res.CustomerTrading[i] = y
		for t := 0; t < h; t++ {
			totalY[t] += y[t]
		}
	}
	// A fixed external aggregate joins the shared total exactly like one more
	// (frozen) player; gating on nil keeps the historical path untouched.
	if cfg.ExternalY != nil {
		for t := 0; t < h; t++ {
			totalY[t] += cfg.ExternalY[t]
		}
	}

	// Best-response sweeps: Gauss-Seidel blocks of 1 (the reference
	// schedule), block-Jacobi otherwise. zeroPV is the shared all-zero PV
	// row used by every customer when net metering is off (read-only, so
	// safe to share across concurrent best responses).
	block := cfg.JacobiBlock
	if block < 1 {
		block = 1
	}
	zeroPV := make([]float64, h)
	type response struct {
		load, y, traj []float64
		cost          float64
	}
	var outs []response
	if block > 1 {
		outs = make([]response, block)
	}

	// Watchdog state: lastGood is the iterate at the end of the most recent
	// healthy sweep (initially the greedy starting point). On a health
	// failure — a non-finite trading total, a diverging sweep delta, or a
	// best response reporting ErrDiverged — the iterate is restored and the
	// sweeps restart with retry-salted CE streams (a different stochastic
	// path; retry 0 uses the historical labels so healthy runs are bitwise
	// unchanged). The budget exhausted, the solve reports ErrDiverged.
	lastGood := newGameSnapshot(res, totalY)
	gapMon := watchdog.NewMonitor(100, 1)
	retry := 0
	ceLabel := func(sweep, i int) string {
		if retry == 0 {
			return fmt.Sprintf("ce-%d-%d", sweep, i)
		}
		return fmt.Sprintf("ce-r%d-%d-%d", retry, sweep, i)
	}
	failSweep := func(cause error) error {
		retry++
		if retry > watchdog.Retries {
			return fmt.Errorf("game: sweeps diverged after %d retries: %w", watchdog.Retries, cause)
		}
		sink.Count("game.watchdog.retries", 1)
		lastGood.restore(res, totalY)
		gapMon.Reset()
		return nil
	}

sweeps:
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		res.Sweeps = sweep + 1
		maxDelta := 0.0
		for start := 0; start < n; start += block {
			// Cancellation check per block (per customer in the Gauss-Seidel
			// schedule) keeps the abort latency to one best response even for
			// a 500-customer sweep.
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			end := start + block
			if end > n {
				end = n
			}
			if end-start == 1 {
				// Single-customer block: the original Gauss-Seidel body,
				// kept verbatim (including its floating-point update order)
				// so JacobiBlock <= 1 reproduces historical results bitwise.
				i := start
				oldY := res.CustomerTrading[i]
				var csrc *rng.Source
				if cfg.NetMetering {
					csrc = src.Derive(ceLabel(sweep, i))
				}
				// Remove this customer's trading from the shared total.
				for t := 0; t < h; t++ {
					totalY[t] -= oldY[t]
				}
				newLoad, newY, traj, cost, err := bestResponse(ctx, customers[i], prices[i], pvRow(pv, i, cfg.NetMetering, zeroPV), totalY, cfg, csrc, ws.cust[i])
				if err != nil {
					if errors.Is(err, watchdog.ErrDiverged) {
						if ferr := failSweep(fmt.Errorf("customer %d: %w", i, err)); ferr != nil {
							return nil, ferr
						}
						sweep = -1
						continue sweeps
					}
					return nil, fmt.Errorf("game: customer %d: %w", i, err)
				}
				cd := 0.0
				for t := 0; t < h; t++ {
					if d := math.Abs(newY[t] - oldY[t]); d > cd {
						cd = d
					}
					totalY[t] += newY[t]
				}
				if cd > maxDelta {
					maxDelta = cd
				}
				res.CustomerLoad[i] = newLoad
				res.CustomerTrading[i] = newY
				res.BatteryTraj[i] = traj
				res.Cost[i] = cost
				continue
			}

			// Block-Jacobi: each member best-responds to the total frozen at
			// block start minus its own previous trading. Members only read
			// shared state and write their own slot of outs, so the block is
			// safe to fan out; per-customer CE streams are derived from
			// (sweep, index), making the fan-out schedule irrelevant.
			out := outs[:end-start]
			err := parallel.ForEach(ctx, cfg.Workers, end-start, func(k int) error {
				i := start + k
				cw := ws.cust[i]
				oldY := res.CustomerTrading[i]
				cw.yOther = growFloats(cw.yOther, h)
				yOther := cw.yOther
				for t := 0; t < h; t++ {
					yOther[t] = totalY[t] - oldY[t]
				}
				var csrc *rng.Source
				if cfg.NetMetering {
					csrc = src.Derive(ceLabel(sweep, i))
				}
				load, y, traj, cost, err := bestResponse(ctx, customers[i], prices[i], pvRow(pv, i, cfg.NetMetering, zeroPV), yOther, cfg, csrc, cw)
				if err != nil {
					return fmt.Errorf("game: customer %d: %w", i, err)
				}
				out[k] = response{load: load, y: y, traj: traj, cost: cost}
				return nil
			})
			if err != nil {
				if errors.Is(err, watchdog.ErrDiverged) {
					if ferr := failSweep(err); ferr != nil {
						return nil, ferr
					}
					sweep = -1
					continue sweeps
				}
				return nil, err
			}
			// Apply updates in index order (deterministic float accumulation).
			for k := range out {
				i := start + k
				oldY := res.CustomerTrading[i]
				newY := out[k].y
				cd := 0.0
				for t := 0; t < h; t++ {
					if d := math.Abs(newY[t] - oldY[t]); d > cd {
						cd = d
					}
					totalY[t] -= oldY[t]
					totalY[t] += newY[t]
				}
				if cd > maxDelta {
					maxDelta = cd
				}
				res.CustomerLoad[i] = out[k].load
				res.CustomerTrading[i] = newY
				res.BatteryTraj[i] = out[k].traj
				res.Cost[i] = out[k].cost
			}
		}
		// Sweep-boundary health check: trading totals must stay finite and
		// the fixed-point gap must not grow without bound.
		sink.Count("game.sweeps", 1)
		sink.Observe("game.sweep.residual", maxDelta)
		healthErr := gapMon.Observe(maxDelta)
		if healthErr == nil && !watchdog.AllFinite(totalY) {
			healthErr = fmt.Errorf("game: non-finite trading total after sweep %d: %w", sweep, watchdog.ErrDiverged)
		}
		if healthErr != nil {
			if ferr := failSweep(healthErr); ferr != nil {
				return nil, ferr
			}
			sweep = -1
			continue
		}
		lastGood.capture(res, totalY)
		if maxDelta < cfg.Tol {
			res.Converged = true
			break
		}
	}

	for t := 0; t < h; t++ {
		sumL, sumY := 0.0, 0.0
		for i := range customers {
			sumL += res.CustomerLoad[i][t]
			sumY += res.CustomerTrading[i][t]
		}
		res.Load[t] = sumL
		res.GridDemand[t] = sumY
	}
	return res, nil
}

// gameSnapshot is a deep copy of the solver's mutable iterate — the
// last-good state the watchdog restores on divergence. Capture reuses its
// buffers, so the healthy path costs one value copy per sweep and no
// steady-state allocation.
type gameSnapshot struct {
	totalY  []float64
	load    [][]float64
	trading [][]float64
	traj    [][]float64
	cost    []float64
	sweeps  int
}

func newGameSnapshot(res *Result, totalY []float64) *gameSnapshot {
	s := &gameSnapshot{
		totalY:  make([]float64, len(totalY)),
		load:    make([][]float64, len(res.CustomerLoad)),
		trading: make([][]float64, len(res.CustomerTrading)),
		traj:    make([][]float64, len(res.BatteryTraj)),
		cost:    make([]float64, len(res.Cost)),
	}
	s.capture(res, totalY)
	return s
}

// copyRowInto copies src into *dst, reallocating only on shape changes; a nil
// src yields a nil *dst (customers without batteries have nil trajectories).
func copyRowInto(dst *[]float64, src []float64) {
	if src == nil {
		*dst = nil
		return
	}
	if len(*dst) != len(src) {
		*dst = make([]float64, len(src))
	}
	copy(*dst, src)
}

func (s *gameSnapshot) capture(res *Result, totalY []float64) {
	copy(s.totalY, totalY)
	for i := range s.load {
		copyRowInto(&s.load[i], res.CustomerLoad[i])
		copyRowInto(&s.trading[i], res.CustomerTrading[i])
		copyRowInto(&s.traj[i], res.BatteryTraj[i])
	}
	copy(s.cost, res.Cost)
	s.sweeps = res.Sweeps
}

func (s *gameSnapshot) restore(res *Result, totalY []float64) {
	copy(totalY, s.totalY)
	for i := range s.load {
		copyRowInto(&res.CustomerLoad[i], s.load[i])
		copyRowInto(&res.CustomerTrading[i], s.trading[i])
		copyRowInto(&res.BatteryTraj[i], s.traj[i])
	}
	copy(res.Cost, s.cost)
	res.Sweeps = s.sweeps
}

// pvRow selects customer i's PV trace, or the caller's shared all-zero row
// when net metering is off (hoisted to one allocation per solve; callers must
// treat the returned slice as read-only).
func pvRow(pv [][]float64, i int, netMetering bool, zero []float64) []float64 {
	if !netMetering || pv == nil {
		return zero
	}
	return pv[i]
}

// projectTrajectory walks a storage trajectory and clamps each step to the
// battery's rate limits and state bounds, making the CE solution physically
// feasible exactly (the CE penalty only discourages violations). No-op for
// unlimited batteries.
func projectTrajectory(traj []float64, b battery.Battery) {
	for t := 1; t < len(traj); t++ {
		delta := traj[t] - traj[t-1]
		if b.MaxCharge > 0 && delta > b.MaxCharge {
			delta = b.MaxCharge
		}
		if b.MaxDischarge > 0 && -delta > b.MaxDischarge {
			delta = -b.MaxDischarge
		}
		v := traj[t-1] + delta
		if v < 0 {
			v = 0
		}
		if v > b.Capacity {
			v = b.Capacity
		}
		traj[t] = v
	}
}

// EquilibriumGap measures how far a solved game is from a Nash point: for
// each customer it computes one more best response against the others'
// current trading and returns the largest cost improvement any customer
// could still realize (and that customer's index). A small gap certifies the
// Gauss-Seidel iteration converged to an ε-equilibrium; the paper's
// Algorithm 1 relies on this behavior without proving it for the
// battery-extended game, so the library makes it checkable. Cancellation
// semantics match Solve.
func EquilibriumGap(ctx context.Context, customers []*household.Customer, prices []timeseries.Series, pv [][]float64, cfg Config, res *Result, src *rng.Source) (gap float64, worst int, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	if res == nil || len(res.CustomerTrading) != len(customers) {
		return 0, 0, errors.New("game: result does not match the community")
	}
	if len(res.Cost) != len(customers) {
		return 0, 0, fmt.Errorf("game: result has %d costs for %d customers", len(res.Cost), len(customers))
	}
	if len(prices) != len(customers) {
		return 0, 0, fmt.Errorf("game: %d price vectors for %d customers", len(prices), len(customers))
	}
	if len(prices) == 0 {
		return 0, 0, errors.New("game: empty community")
	}
	h := len(prices[0])
	for i, p := range prices {
		if len(p) != h {
			return 0, 0, fmt.Errorf("game: price vector %d has length %d, want %d", i, len(p), h)
		}
	}
	// A malformed Result must surface as an error, not an index panic.
	for i := range customers {
		if len(res.CustomerTrading[i]) != h {
			return 0, 0, fmt.Errorf("game: result trading vector %d has length %d, want price horizon %d",
				i, len(res.CustomerTrading[i]), h)
		}
	}
	if cfg.NetMetering {
		if src == nil {
			return 0, 0, errors.New("game: nil source with net metering enabled")
		}
		if len(pv) != len(customers) {
			return 0, 0, fmt.Errorf("game: pv traces %d != customers %d", len(pv), len(customers))
		}
		for i, tr := range pv {
			if len(tr) != h {
				return 0, 0, fmt.Errorf("game: pv trace %d has length %d, want %d", i, len(tr), h)
			}
		}
	}

	if cfg.ExternalY != nil && len(cfg.ExternalY) != h {
		return 0, 0, fmt.Errorf("game: external trading aggregate has length %d, want %d", len(cfg.ExternalY), h)
	}

	totalY := make([]float64, h)
	for i := range customers {
		for t := 0; t < h; t++ {
			totalY[t] += res.CustomerTrading[i][t]
		}
	}
	if cfg.ExternalY != nil {
		for t := 0; t < h; t++ {
			totalY[t] += cfg.ExternalY[t]
		}
	}

	// Each customer's probe best response is independent of the others
	// (streams are derived per index), so the gap scan parallelizes freely;
	// the reduction below runs in index order either way. The probe workspace
	// is local — one entry per customer, pre-grown before the fan-out so the
	// workers only index into it.
	probeWS := NewWorkspace()
	probeWS.ensure(len(customers))
	zeroPV := make([]float64, h)
	improvement := make([]float64, len(customers))
	err = parallel.ForEach(ctx, cfg.Workers, len(customers), func(i int) error {
		cw := probeWS.cust[i]
		cw.yOther = growFloats(cw.yOther, h)
		yOther := cw.yOther
		for t := 0; t < h; t++ {
			yOther[t] = totalY[t] - res.CustomerTrading[i][t]
		}
		var csrc *rng.Source
		if cfg.NetMetering {
			csrc = src.Derive(fmt.Sprintf("gap-%d", i))
		}
		_, _, _, cost, err := bestResponse(ctx, customers[i], prices[i], pvRow(pv, i, cfg.NetMetering, zeroPV), yOther, cfg, csrc, cw)
		if err != nil {
			return fmt.Errorf("game: customer %d: %w", i, err)
		}
		improvement[i] = res.Cost[i] - cost
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	worst = -1
	for i, imp := range improvement {
		if imp > gap {
			gap = imp
			worst = i
		}
	}
	return gap, worst, nil
}

// greedyFill places an appliance's energy into the earliest window slots at
// the maximum level — the pre-smart-home placement used as the game's
// starting point. Residual energy below the maximum level is dropped into the
// next slot at the largest level that does not overshoot (close enough for an
// initial guess; the DP step immediately replaces it).
//
// An appliance whose energy exceeds window-length × max-level cannot fit, and
// silently dropping the residual would start the game from an iterate that
// under-reports demand; such appliances are rejected (wrapping
// dpsched.ErrInfeasible, like the DP step would for the quantized problem).
func greedyFill(a *appliance.Appliance, load []float64) error {
	if a.Start < 0 || a.Deadline >= len(load) || a.Start > a.Deadline {
		return fmt.Errorf("appliance %q: window [%d,%d] outside horizon %d: %w",
			a.Name, a.Start, a.Deadline, len(load), dpsched.ErrInfeasible)
	}
	remaining := a.Energy
	maxLv := a.MaxLevel()
	for t := a.Start; t <= a.Deadline && remaining > 1e-9; t++ {
		x := maxLv
		if x > remaining {
			x = remaining
		}
		load[t] += x
		remaining -= x
	}
	if remaining > 1e-9 {
		return fmt.Errorf("appliance %q: %.3f kWh of %.3f kWh do not fit window [%d,%d] at max level %.3f kW: %w",
			a.Name, remaining, a.Energy, a.Start, a.Deadline, maxLv, dpsched.ErrInfeasible)
	}
	return nil
}

// growFloats returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified; callers overwrite.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// bestResponse solves customer n's Problem P1 given the other customers'
// total trading yOther, alternating the DP appliance step and the CE battery
// step (the inner while-loop of Algorithm 1). The context flows into the CE
// battery optimizer, whose per-iteration poll bounds the abort latency.
//
// cw supplies every scratch buffer (DP tables, CE population, trajectory and
// cost-snapshot vectors); the returned load, y and traj slices are freshly
// allocated — they escape into the Result — so reusing cw never aliases
// previously returned responses, and a reused cw yields bitwise-identical
// results to a fresh one.
func bestResponse(ctx context.Context, c *household.Customer, price timeseries.Series, pv []float64, yOther []float64, cfg Config, src *rng.Source, cw *custWorkspace) (load, y []float64, traj []float64, cost float64, err error) {
	h := len(price)

	// tradeCost evaluates the customer's per-slot cost Cₙʰ for trading v at
	// slot t given the others' total.
	tradeCost := func(t int, v float64) float64 {
		return cfg.Tariff.CustomerCost(price[t], yOther[t]+v, v)
	}

	useBattery := cfg.NetMetering && c.HasBattery()
	b0 := 0.0
	if useBattery {
		b0 = cfg.BatteryInitFrac * c.Battery.Capacity
	}
	// Battery trajectory points b[0..H]; flat start.
	cw.curTraj = growFloats(cw.curTraj, h+1)
	curTraj := cw.curTraj
	for i := range curTraj {
		curTraj[i] = b0
	}

	// batteryShift[t] = b[t+1] − b[t]: extra energy the customer must buy
	// (or may sell, if negative) at slot t beyond consumption − generation.
	batteryShift := func(tr []float64, t int) float64 { return tr[t+1] - tr[t] }

	cw.baseLoad = growFloats(cw.baseLoad, h)
	baseLoad := cw.baseLoad
	for t := 0; t < h; t++ {
		baseLoad[t] = c.BaseLoadAt(t)
	}

	// Inner alternation: DP appliances with battery fixed, then CE battery
	// with appliances fixed. Two rounds suffice in practice; the outer game
	// sweeps provide further refinement.
	//
	// snapshot is the one scratch buffer behind every makeCost closure of
	// this best response: ScheduleAll consumes each returned CostFn fully
	// before requesting the next, so overwriting the buffer between
	// appliances is safe and avoids a per-appliance allocation.
	cw.snapshot = growFloats(cw.snapshot, h)
	snapshot := cw.snapshot
	var schedLoad []float64
	const innerRounds = 2
	for round := 0; round < innerRounds; round++ {
		// --- Appliance step (line 4 of Algorithm 1). ---
		makeCost := func(current []float64) dpsched.CostFn {
			copy(snapshot, current)
			return func(t int, x float64) float64 {
				// Trading without this appliance's candidate power.
				base := baseLoad[t] + snapshot[t] - pv[t] + batteryShift(curTraj, t)
				return tradeCost(t, base+x) - tradeCost(t, base)
			}
		}
		var sErr error
		schedLoad, sErr = cw.dp.ScheduleAllLoad(c.Appliances, h, makeCost)
		if sErr != nil {
			return nil, nil, nil, 0, sErr
		}

		// --- Battery step (line 5 of Algorithm 1). ---
		if !useBattery {
			break
		}
		// Rate limits (when configured) enter the CE objective as steep
		// penalties and are enforced exactly by projection afterwards.
		maxCharge, maxDischarge := c.Battery.MaxCharge, c.Battery.MaxDischarge
		penaltyScale := 0.0
		if maxCharge > 0 || maxDischarge > 0 {
			for t := 0; t < h; t++ {
				if p := price[t]; p > penaltyScale {
					penaltyScale = p
				}
			}
			penaltyScale = 100 * (penaltyScale + 1)
		}
		objective := func(x []float64) float64 {
			// x is b[1..H]; b[0] is pinned at b0.
			total := 0.0
			prev := b0
			for t := 0; t < h; t++ {
				shift := x[t] - prev
				v := baseLoad[t] + schedLoad[t] - pv[t] + shift
				total += tradeCost(t, v)
				if maxCharge > 0 && shift > maxCharge {
					total += penaltyScale * (shift - maxCharge)
				}
				if maxDischarge > 0 && -shift > maxDischarge {
					total += penaltyScale * (-shift - maxDischarge)
				}
				prev = x[t]
			}
			return total
		}
		cw.lo = growFloats(cw.lo, h)
		cw.hi = growFloats(cw.hi, h)
		cw.init = growFloats(cw.init, h)
		lo, hi, init := cw.lo, cw.hi, cw.init
		for t := 0; t < h; t++ {
			lo[t] = 0
			hi[t] = c.Battery.Capacity
			init[t] = curTraj[t+1]
		}
		ceRes, ceErr := cw.ce.Minimize(ctx, objective, lo, hi, init, src, cfg.CE)
		if ceErr != nil {
			return nil, nil, nil, 0, ceErr
		}
		curTraj[0] = b0
		copy(curTraj[1:], ceRes.X)
		projectTrajectory(curTraj, c.Battery)
	}

	load = make([]float64, h)
	y = make([]float64, h)
	cost = 0.0
	for t := 0; t < h; t++ {
		load[t] = baseLoad[t] + schedLoad[t]
		y[t] = load[t] - pv[t] + batteryShift(curTraj, t)
		if !cfg.NetMetering && y[t] < 0 {
			// Without net metering there is no selling; consumption is the
			// trade (pv is zero in that mode, so this is defensive only).
			y[t] = load[t]
		}
		cost += tradeCost(t, y[t])
	}
	if useBattery {
		// Fresh copy: curTraj is workspace scratch and will be overwritten by
		// the next best response, but the trajectory escapes into the Result.
		traj = make([]float64, h+1)
		copy(traj, curTraj)
	}
	return load, y, traj, cost, nil
}
