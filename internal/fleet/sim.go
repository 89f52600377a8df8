package fleet

import (
	"context"
	"fmt"

	"nmdetect/internal/community"
	"nmdetect/internal/obs"
	"nmdetect/internal/parallel"
)

// SimDayResult pairs one community's day environment (published price,
// renewable forecast) with its realized trace.
type SimDayResult struct {
	Env   *community.DayEnvironment
	Trace *community.DayTrace
}

// SimDay is the open-loop counterpart of the monitoring day loop: it
// advances every engine exactly one clean simulated day (PrepareDay +
// SimulateDay, no campaign, no detector) and returns the per-community
// results in fleet order. The same invariance contract as Drive applies:
// workers bounds the fan-out only, each engine advances exclusively under
// its own slot, so the traces are bitwise invariant to the worker count.
// cmd/nmsim's -communities mode and the fleet curve test (TestFleetCurve)
// are built on this loop.
func SimDay(ctx context.Context, workers int, engines []*community.Engine, netMetering bool) ([]SimDayResult, error) {
	sink := obs.From(ctx)
	end := sink.Span("fleet.sim_day")
	defer end()
	results := make([]SimDayResult, len(engines))
	err := parallel.ForEach(ctx, workers, len(engines), func(i int) error {
		env, err := engines[i].PrepareDay(ctx, netMetering)
		if err != nil {
			return fmt.Errorf("fleet: community %d: %w", i, err)
		}
		trace, err := engines[i].SimulateDay(ctx, env, nil, netMetering, nil)
		if err != nil {
			return fmt.Errorf("fleet: community %d: %w", i, err)
		}
		results[i] = SimDayResult{Env: env, Trace: trace}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
