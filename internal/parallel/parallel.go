// Package parallel is the engine-wide bounded worker pool behind every
// concurrent code path of the simulator: the game solver's block-Jacobi
// sweeps and shards, the community engine's clean/attacked solve pair and
// per-customer PV generation, and the fleet and supervisor fan-outs.
//
// Two rules keep the concurrency layer compatible with the repository's
// determinism contract (DESIGN.md "Parallel execution & determinism"):
//
//  1. Work items are identified by index, write only to their own index-th
//     slot of pre-sized result slices, and draw randomness exclusively from
//     rng.Sources derived per index — so the assignment of items to
//     goroutines can never influence a result bit.
//  2. The pool is bounded globally, not per call site. Nested parallelism
//     (a parallel engine step launching a parallel game solve launching
//     parallel shards) cannot oversubscribe the machine or deadlock:
//     helper goroutines are admitted by a token bucket sized to
//     runtime.NumCPU() by default, and every ForEach caller also executes
//     work on its own goroutine, guaranteeing progress even when the bucket
//     is empty.
//
// Cancellation follows the repository-wide contract (DESIGN.md "Scenario
// spec & cancellation contract"): every entry point takes a context and
// polls ctx.Err() at work-item boundaries — no goroutine blocks on ctx.Done(),
// so cancellation can never change which results a completed call produced,
// only whether the call completes. A cancelled call still releases every
// helper token it acquired before returning.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nmdetect/internal/obs"
)

// limiter is a token bucket bounding the number of helper goroutines alive
// across the whole process. Helpers release to the limiter they acquired
// from, so swapping the global limiter (SetLimit) can never block a release.
type limiter struct {
	tokens chan struct{}
	limit  int
}

func newLimiter(n int) *limiter {
	if n < 1 {
		n = 1
	}
	l := &limiter{tokens: make(chan struct{}, n), limit: n}
	for i := 0; i < n; i++ {
		l.tokens <- struct{}{}
	}
	return l
}

func (l *limiter) tryAcquire() bool {
	select {
	case <-l.tokens:
		return true
	default:
		return false
	}
}

func (l *limiter) release() { l.tokens <- struct{}{} }

var global atomic.Pointer[limiter]

func init() { global.Store(newLimiter(runtime.NumCPU())) }

// Limit reports the current global helper-goroutine budget.
func Limit() int { return global.Load().limit }

// Outstanding reports how many helper tokens are currently checked out of
// the global bucket. It is zero whenever no ForEach/Do call is in flight —
// the invariant the cancellation tests assert: aborting a call must return
// every token it acquired. (After SetLimit, in-flight work holds tokens of
// the limiter it started with, which this no longer observes.)
func Outstanding() int {
	l := global.Load()
	return l.limit - len(l.tokens)
}

// SetLimit replaces the global helper budget (n < 1 is treated as 1) and
// returns the previous value. In-flight work keeps the budget it started
// with; call it from main() or test setup, not concurrently with heavy work.
func SetLimit(n int) int {
	prev := global.Swap(newLimiter(n)).limit
	return prev
}

// DefaultWorkers is the worker budget a zero Workers knob resolves to.
func DefaultWorkers() int { return runtime.NumCPU() }

// Resolve normalizes a Workers configuration knob: values <= 0 select
// DefaultWorkers(), anything else is returned unchanged.
func Resolve(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	return workers
}

// ctxErr reports the context's cancellation state; a nil context is treated
// as never cancelled.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ForEach runs fn(i) for every i in [0, n) using at most Resolve(workers)
// concurrent executions, the calling goroutine included. The first error in
// index order is returned (later indices may be skipped once an error is
// observed). With workers == 1 (or n == 1) the loop runs inline in index
// order, byte-identical to a plain for loop — the sequential reference path.
//
// The context is polled before every work item: once it is cancelled no new
// item starts and ForEach returns ctx.Err() — unless some fn had already
// failed, in which case that error (first in index order) wins. A nil ctx is
// accepted and never cancels.
//
// With workers > 1, a panic in fn stops the call like an error does, and
// ForEach re-raises the first one on the calling goroutine once every helper
// has returned its token, so it reaches the caller's recover (cli.Main exits
// 1, DESIGN.md §14) instead of ending the process from a helper. The
// re-raised value prints the original value and the stack of the goroutine
// that panicked.
//
// fn must be safe for concurrent invocation when workers > 1: distinct
// indices must not write to shared state.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next int64
	var failed, cancelled atomic.Bool
	var panicked atomic.Pointer[workerPanic]
	run := func() {
		defer func() {
			if p := recover(); p != nil {
				wp, ok := p.(*workerPanic)
				if !ok {
					wp = &workerPanic{value: p, stack: debug.Stack()}
				}
				panicked.CompareAndSwap(nil, wp)
				failed.Store(true)
			}
		}()
		for {
			if failed.Load() || cancelled.Load() {
				return
			}
			if ctxErr(ctx) != nil {
				cancelled.Store(true)
				return
			}
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}

	// Admit up to workers-1 helpers from the global bucket; the caller is
	// the guaranteed worker, so an empty bucket degrades to inline execution
	// instead of deadlocking under nested parallelism.
	l := global.Load()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		if !l.tryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer l.release()
			run()
		}()
	}
	// Pool-occupancy sample at fan-out time: how many helper tokens the
	// whole process has checked out right now. Reads only limiter state, so
	// the work items (and their results) are untouched.
	obs.From(ctx).Observe("parallel.occupancy", float64(Outstanding()))
	run()
	wg.Wait()

	if p := panicked.Load(); p != nil {
		panic(p) // lint:allow-panic — re-raises a work item's panic on the caller
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// workerPanic is a panic recovered from a ForEach work item. A ForEach
// nested in a work item passes it on as is, so the stack stays the one of
// the goroutine where the panic started.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) String() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }

// Do runs the given tasks with at most Resolve(workers) executing
// concurrently and returns the first error in argument order. With
// workers == 1 the tasks run sequentially in order. Cancellation semantics
// match ForEach.
func Do(ctx context.Context, workers int, tasks ...func() error) error {
	return ForEach(ctx, workers, len(tasks), func(i int) error { return tasks[i]() })
}
