package game

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"nmdetect/internal/appliance"
	"nmdetect/internal/dpsched"
	"nmdetect/internal/household"
	"nmdetect/internal/rng"
)

func gobBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSolveWSWorkspaceIdentity is the workspace-reuse contract: solving
// through a reused workspace — including a workspace that already served
// other solves — is gob-byte identical to the legacy allocating Solve, on
// both the Gauss-Seidel and the block-Jacobi schedule.
func TestSolveWSWorkspaceIdentity(t *testing.T) {
	customers, pv, cfg := jacobiCommunity(t)
	price := variedPrice()

	for _, block := range []int{0, 8} {
		cfg.JacobiBlock = block
		legacy, err := Solve(nil, customers, price, pv, cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		want := gobBytes(t, legacy)

		ws := NewWorkspace()
		for trial := 0; trial < 3; trial++ {
			got, err := SolveWS(nil, ws, customers, price, pv, cfg, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if !resultsIdentical(legacy, got) {
				t.Fatalf("block %d trial %d: workspace solve differs from legacy", block, trial)
			}
			if !bytes.Equal(want, gobBytes(t, got)) {
				t.Fatalf("block %d trial %d: workspace solve not gob-byte identical to legacy", block, trial)
			}
		}
		// Earlier Results must survive workspace reuse untouched (ownership
		// contract: nothing in a Result aliases the workspace).
		if !bytes.Equal(want, gobBytes(t, legacy)) {
			t.Fatalf("block %d: legacy result mutated by later workspace solves", block)
		}
	}
}

// TestGreedyFillRejectsOverfullAppliance is the regression test for the
// latent bug where greedyFill silently dropped residual energy that could
// never fit the appliance window.
func TestGreedyFillRejectsOverfullAppliance(t *testing.T) {
	base := make([]float64, 24)
	c := &household.Customer{
		ID: 0,
		Appliances: []*appliance.Appliance{{
			Name: "overfull", Levels: []float64{1.0}, Energy: 10, Start: 0, Deadline: 3,
		}},
		BaseLoad: base,
	}
	cfg := DefaultConfig(testTariff(t), false)
	_, err := Solve(nil, []*household.Customer{c}, variedPrice(), nil, cfg, nil)
	if err == nil {
		t.Fatal("Solve accepted an appliance whose energy cannot fit its window")
	}
	if !errors.Is(err, dpsched.ErrInfeasible) {
		t.Fatalf("error %v does not wrap dpsched.ErrInfeasible", err)
	}
	if !strings.Contains(err.Error(), "customer 0") || !strings.Contains(err.Error(), "overfull") {
		t.Fatalf("error %v does not identify the customer and appliance", err)
	}

	// Direct unit check: residual is reported, fitting energy is not.
	load := make([]float64, 24)
	if err := greedyFill(&appliance.Appliance{Name: "x", Levels: []float64{1.0}, Energy: 10, Start: 0, Deadline: 3}, load); err == nil {
		t.Fatal("greedyFill accepted 10 kWh into a 4-slot window at 1 kW")
	}
	if err := greedyFill(&appliance.Appliance{Name: "x", Levels: []float64{1.0}, Energy: 4, Start: 0, Deadline: 3}, load); err != nil {
		t.Fatalf("greedyFill rejected a feasible appliance: %v", err)
	}
	if err := greedyFill(&appliance.Appliance{Name: "x", Levels: []float64{1.0}, Energy: 1, Start: 20, Deadline: 30}, load); err == nil {
		t.Fatal("greedyFill accepted a window past the horizon")
	}
}
