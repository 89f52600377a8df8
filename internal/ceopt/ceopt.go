// Package ceopt implements the cross-entropy (CE) stochastic optimization
// method of Section 3.2 (after Botev, Kroese, Rubinstein [3]), which the
// paper uses to optimize each customer's battery-storage trajectory — the
// non-convex part of Problem P1.
//
// CE maintains a parametric sampling density ρ(b, p) over the feasible box;
// here the density is an independent truncated Gaussian per coordinate. Each
// iteration draws K samples, evaluates the objective, keeps the elite
// fraction (the importance-sampling update that minimizes the Kullback-
// Leibler distance to the optimal density reduces, for Gaussians, to the
// elite sample mean and standard deviation), and smooths the parameters. The
// standard deviation shrinking below tolerance signals convergence.
package ceopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/watchdog"
)

// ErrDiverged re-exports the shared watchdog sentinel: a Minimize call that
// returns an error wrapping it saw its sampling density leave the finite
// region (typically a NaN-producing objective) and exhausted its retries.
var ErrDiverged = watchdog.ErrDiverged

// Objective evaluates a candidate point. Lower is better.
type Objective func(x []float64) float64

// Options tunes the optimizer.
type Options struct {
	// Samples is the population size K per iteration.
	Samples int
	// EliteFrac is the fraction of best samples used for the update.
	EliteFrac float64
	// MaxIter bounds the number of iterations.
	MaxIter int
	// InitStdFrac sets the initial per-coordinate standard deviation as a
	// fraction of the box width.
	InitStdFrac float64
	// Smoothing is the parameter-update smoothing α in (0, 1]: new = α·elite
	// + (1−α)·old. 1 means no smoothing.
	Smoothing float64
	// StdTol declares convergence when every coordinate's std falls below
	// StdTol times the box width.
	StdTol float64
	// MinStd floors the standard deviation to avoid premature collapse
	// (fraction of box width).
	MinStd float64
}

// DefaultOptions returns the configuration used by the battery optimizer:
// small populations tuned for the 24-dimensional trajectory problem.
func DefaultOptions() Options {
	return Options{
		Samples:     60,
		EliteFrac:   0.15,
		MaxIter:     40,
		InitStdFrac: 0.3,
		Smoothing:   0.7,
		StdTol:      0.01,
		MinStd:      0.001,
	}
}

// Validate checks option ranges.
func (o Options) Validate() error {
	if o.Samples < 2 {
		return fmt.Errorf("ceopt: need at least 2 samples, got %d", o.Samples)
	}
	if math.IsNaN(o.EliteFrac) || o.EliteFrac <= 0 || o.EliteFrac > 1 {
		return fmt.Errorf("ceopt: elite fraction %v out of (0,1]", o.EliteFrac)
	}
	if int(o.EliteFrac*float64(o.Samples)) < 1 {
		return fmt.Errorf("ceopt: elite fraction %v of %d samples yields no elites", o.EliteFrac, o.Samples)
	}
	if o.MaxIter < 1 {
		return fmt.Errorf("ceopt: max iterations %d must be positive", o.MaxIter)
	}
	if math.IsNaN(o.InitStdFrac) || math.IsInf(o.InitStdFrac, 0) || o.InitStdFrac <= 0 {
		return fmt.Errorf("ceopt: initial std fraction %v must be positive and finite", o.InitStdFrac)
	}
	if math.IsNaN(o.Smoothing) || o.Smoothing <= 0 || o.Smoothing > 1 {
		return fmt.Errorf("ceopt: smoothing %v out of (0,1]", o.Smoothing)
	}
	if math.IsNaN(o.StdTol) || math.IsInf(o.StdTol, 0) || o.StdTol < 0 {
		return fmt.Errorf("ceopt: std tolerance %v must be finite and non-negative", o.StdTol)
	}
	if math.IsNaN(o.MinStd) || math.IsInf(o.MinStd, 0) || o.MinStd < 0 {
		return fmt.Errorf("ceopt: min std %v must be finite and non-negative", o.MinStd)
	}
	return nil
}

// Result reports the outcome of a Minimize call.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective at X.
	F float64
	// Iterations is the number of CE iterations performed.
	Iterations int
	// Converged reports whether the std-tolerance criterion fired (as
	// opposed to hitting MaxIter).
	Converged bool
	// Evaluations counts objective calls.
	Evaluations int
}

// sample is one candidate point and its objective value.
type sample struct {
	x []float64
	f float64
}

// popSorter sorts a population by objective value. It implements
// sort.Interface so the per-iteration sort allocates nothing when the
// interface value is taken from a long-lived Workspace; the underlying sort
// algorithm performs the exact comparison/swap sequence sort.Slice did, so
// the elite ordering (and therefore every downstream bit) is unchanged.
type popSorter struct{ pop []sample }

func (p *popSorter) Len() int           { return len(p.pop) }
func (p *popSorter) Less(i, j int) bool { return p.pop[i].f < p.pop[j].f }
func (p *popSorter) Swap(i, j int)      { p.pop[i], p.pop[j] = p.pop[j], p.pop[i] }

// Workspace holds the sampling-density state and population buffers one
// Minimize call needs, so hot paths (the game solver's per-customer battery
// steps) can reuse them across calls. Buffers grow monotonically to the
// largest (samples, dimension) seen. A Workspace is NOT safe for concurrent
// use; give each goroutine its own. The zero value is ready to use.
//
// Contract: ws.Minimize draws the same candidates and returns bitwise-
// identical results to the package-level Minimize (which is now a thin
// wrapper over a fresh workspace).
type Workspace struct {
	width, mean, std  []float64
	lastMean, lastStd []float64
	pop               []sample
	sorter            popSorter
}

// NewWorkspace returns an empty workspace; buffers are allocated lazily.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified; callers overwrite.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// population returns ws.pop resized to k samples of dimension d, reusing
// every buffer that is already large enough.
func (ws *Workspace) population(k, d int) []sample {
	if cap(ws.pop) < k {
		pop := make([]sample, k)
		copy(pop, ws.pop)
		ws.pop = pop
	}
	ws.pop = ws.pop[:k]
	for i := range ws.pop {
		ws.pop[i].x = grow(ws.pop[i].x, d)
		ws.pop[i].f = 0
	}
	return ws.pop
}

// Minimize runs cross-entropy optimization of f over the box [lo, hi]^d.
// The initial sampling mean may be supplied via init (nil means box center).
// The source must not be nil.
//
// The context is polled once per CE iteration: cancelling it makes Minimize
// return ctx.Err() together with the best result found so far (X is always a
// feasible point once the initial evaluation has run). A nil ctx never
// cancels.
//
// Minimize allocates its density and population buffers per call; hot paths
// should reuse a Workspace instead (same draws, same results, bitwise).
func Minimize(ctx context.Context, f Objective, lo, hi []float64, init []float64, src *rng.Source, opts Options) (Result, error) {
	var ws Workspace
	return ws.Minimize(ctx, f, lo, hi, init, src, opts)
}

// Minimize is the workspace-backed equivalent of the package-level Minimize.
// Result.X is always freshly allocated (it escapes into solver results); only
// the internal buffers are reused.
func (ws *Workspace) Minimize(ctx context.Context, f Objective, lo, hi []float64, init []float64, src *rng.Source, opts Options) (Result, error) {
	if f == nil {
		return Result{}, errors.New("ceopt: nil objective")
	}
	if src == nil {
		return Result{}, errors.New("ceopt: nil random source")
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	d := len(lo)
	if d == 0 || len(hi) != d {
		return Result{}, fmt.Errorf("ceopt: box dimensions %d/%d invalid", len(lo), len(hi))
	}
	if init != nil && len(init) != d {
		return Result{}, fmt.Errorf("ceopt: init dimension %d != %d", len(init), d)
	}
	ws.width = grow(ws.width, d)
	width := ws.width
	for i := range lo {
		if hi[i] < lo[i] {
			return Result{}, fmt.Errorf("ceopt: box [%v,%v] inverted at dim %d", lo[i], hi[i], i)
		}
		width[i] = hi[i] - lo[i]
	}

	ws.mean = grow(ws.mean, d)
	ws.std = grow(ws.std, d)
	mean := ws.mean
	std := ws.std
	for i := range mean {
		if init != nil {
			mean[i] = rng.Clamp(init[i], lo[i], hi[i])
		} else {
			mean[i] = (lo[i] + hi[i]) / 2
		}
		std[i] = opts.InitStdFrac * width[i]
		if std[i] == 0 {
			std[i] = opts.InitStdFrac // degenerate box: fixed coordinate
		}
	}

	nElite := int(opts.EliteFrac * float64(opts.Samples))
	pop := ws.population(opts.Samples, d)

	res := Result{X: make([]float64, d), F: math.Inf(1)}
	// Seed the incumbent with the initial mean so a degenerate run still
	// returns a feasible point.
	copy(res.X, mean)
	res.F = f(res.X)
	res.Evaluations++

	// Watchdog state: lastMean/lastStd hold the sampling density of the most
	// recent healthy iteration. An elite update that leaves the finite region
	// (a NaN-producing objective poisons the elite statistics) restores it
	// and redraws — the source keeps advancing, so the retry explores a
	// different population. Healthy runs never restore, so their draws and
	// results are bitwise unchanged.
	ws.lastMean = grow(ws.lastMean, d)
	ws.lastStd = grow(ws.lastStd, d)
	lastMean, lastStd := ws.lastMean, ws.lastStd
	copy(lastMean, mean)
	copy(lastStd, std)
	retries := 0
	sink := obs.From(ctx)

	for iter := 0; iter < opts.MaxIter; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		res.Iterations = iter + 1
		for k := range pop {
			for i := 0; i < d; i++ {
				if width[i] == 0 {
					pop[k].x[i] = lo[i]
					continue
				}
				pop[k].x[i] = src.TruncNormal(mean[i], std[i], lo[i], hi[i])
			}
		}
		for k := range pop {
			pop[k].f = f(pop[k].x)
		}
		res.Evaluations += len(pop)
		ws.sorter.pop = pop
		sort.Sort(&ws.sorter)
		sink.Count("ceopt.generations", 1)
		sink.Observe("ceopt.elite.best", pop[0].f)
		// A NaN incumbent (the seed point evaluated NaN) loses every ordered
		// comparison, so it must be displaced explicitly or the optimizer
		// could return NaN even after recovering.
		if pop[0].f < res.F || math.IsNaN(res.F) {
			res.F = pop[0].f
			copy(res.X, pop[0].x)
		}

		// Elite statistics with smoothing.
		for i := 0; i < d; i++ {
			m := 0.0
			for k := 0; k < nElite; k++ {
				m += pop[k].x[i]
			}
			m /= float64(nElite)
			v := 0.0
			for k := 0; k < nElite; k++ {
				dv := pop[k].x[i] - m
				v += dv * dv
			}
			sd := math.Sqrt(v / float64(nElite))
			mean[i] = opts.Smoothing*m + (1-opts.Smoothing)*mean[i]
			std[i] = opts.Smoothing*sd + (1-opts.Smoothing)*std[i]
			if floor := opts.MinStd * width[i]; std[i] < floor {
				std[i] = floor
			}
		}

		// Iteration-boundary health check: the density must stay finite and
		// the best sampled objective must not be NaN or unbounded below.
		if !watchdog.AllFinite(mean, std) || math.IsNaN(pop[0].f) || math.IsInf(pop[0].f, -1) {
			retries++
			sink.Count("ceopt.watchdog.retries", 1)
			if retries > watchdog.Retries {
				return res, fmt.Errorf("ceopt: sampling density diverged at iteration %d after %d retries: %w",
					iter, watchdog.Retries, watchdog.ErrDiverged)
			}
			copy(mean, lastMean)
			copy(std, lastStd)
			continue
		}
		copy(lastMean, mean)
		copy(lastStd, std)

		converged := true
		for i := 0; i < d; i++ {
			if width[i] > 0 && std[i] > opts.StdTol*width[i] {
				converged = false
				break
			}
		}
		if converged {
			res.Converged = true
			break
		}
	}
	return res, nil
}
