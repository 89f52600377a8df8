package community

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"nmdetect/internal/attack"
	"nmdetect/internal/game"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
)

// TestEngineWorkspaceReuseMatchesFreshSolve pins the engine's reused game
// workspaces to the reference: after several days of reuse, SimulateDay's
// clean solve must still agree bitwise with a from-scratch game.Solve on the
// same inputs. This is the cross-day version of the game package's
// workspace-identity test — it would catch any state leaking across days
// through e.solveWS.
func TestEngineWorkspaceReuseMatchesFreshSolve(t *testing.T) {
	e := testEngine(t, 12, 42)
	ctx := context.Background()

	for day := 0; day < 3; day++ {
		env, err := e.PrepareDay(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := e.SimulateDay(ctx, env, nil, true, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Reference solve with a brand-new workspace and the engine's exact
		// inputs (same controller seed, config, price, PV).
		ref, err := game.Solve(ctx, e.Customers(), env.Published, env.PV, e.GameConfig(true), rng.New(e.ControllerSeed()))
		if err != nil {
			t.Fatal(err)
		}
		for n := range trace.CleanMeter {
			for h := range trace.CleanMeter[n] {
				if math.Float64bits(trace.CleanMeter[n][h]) != math.Float64bits(ref.CustomerTrading[n][h]) {
					t.Fatalf("day %d meter %d slot %d: engine (reused ws) %v != fresh solve %v",
						day, n, h, trace.CleanMeter[n][h], ref.CustomerTrading[n][h])
				}
			}
		}
	}
}

// TestDaySolvesSharedAndReleased pins the engine's day memo: a payload that
// leaves the price unchanged makes the clean and attacked solves one game,
// which the concurrent pair solves once, and no solve outlives its day.
func TestDaySolvesSharedAndReleased(t *testing.T) {
	cfg := DefaultConfig(12, 13)
	cfg.GameSweeps = 2
	cfg.Workers = 2
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	ctx := obs.With(context.Background(), sink)
	env, err := e.PrepareDay(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attack.NewCampaign(12, 1, 2, 2, attack.FalseReading{From: 10, To: 14, MagnitudeKW: 1})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := e.SimulateDay(ctx, env, camp, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"name":"game.solve"`); n != 1 {
		t.Errorf("clean and attacked solves of one price ran %d game solves, want 1", n)
	}
	if !slices.EqualFunc(trace.CleanMeter, trace.AttackedMeter, sameBits) {
		t.Error("clean and attacked flows differ under an unchanged price")
	}
	if len(e.solves.entries) != 0 {
		t.Errorf("engine kept %d solves past their day", len(e.solves.entries))
	}
}
