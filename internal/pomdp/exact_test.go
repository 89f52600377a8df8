package pomdp

import (
	"context"
	"math"
	"testing"
)

func TestFiniteHorizonValidation(t *testing.T) {
	if _, err := SolveFiniteHorizon(context.Background(), tiger(), 0); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := tiger()
	bad.Discount = 1.5
	if _, err := SolveFiniteHorizon(context.Background(), bad, 2); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestFiniteHorizonOneStepTiger(t *testing.T) {
	p, err := SolveFiniteHorizon(context.Background(), tiger(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// One stage to go at uniform belief: listening (−1) beats opening
	// (0.5·10 + 0.5·(−100) = −45).
	if got := p.ValueAt(UniformBelief(2), 1); math.Abs(got-(-1)) > 1e-9 {
		t.Fatalf("V1(uniform) = %v, want -1", got)
	}
	if a := p.Action(UniformBelief(2)); a != 0 {
		t.Fatalf("uniform action = %d, want listen", a)
	}
	// Knowing the tiger's location, open the other door: value 10.
	if got := p.ValueAt(PointBelief(2, 0), 1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("V1(point) = %v, want 10", got)
	}
}

func TestFiniteHorizonTwoStepTigerExact(t *testing.T) {
	// Two stages from a known tiger location: open the correct door (+10),
	// which resets the episode to 50/50, then the best final move is to
	// listen (−1): V₂ = 10 + 0.95·(−1) = 9.05. (Listening first is worse:
	// −1 + 0.95·(0.85·10 − 0.15·100) < 0.)
	p, err := SolveFiniteHorizon(context.Background(), tiger(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ValueAt(PointBelief(2, 0), 2); math.Abs(got-9.05) > 1e-9 {
		t.Fatalf("V2(point) = %v, want 9.05", got)
	}
	// At the full horizon the known-state action is to open the far door.
	if a := p.Action(PointBelief(2, 0)); a != 2 {
		t.Fatalf("action = %d, want open-right", a)
	}
}

func TestFiniteHorizonUpperBoundsPBVIValue(t *testing.T) {
	// The exact t-stage value of a reward-negative... rather: PBVI's
	// infinite-horizon value from lower-bound initialization must be
	// consistent with the exact short-horizon value: V_exact(t) ≤ V_PBVI + γ^t·M
	// for the tiger's bounded rewards. We check the cheap direction:
	// the exact 3-stage value at uniform belief must not exceed the
	// discounted-infinite optimum approximated by PBVI by more than the
	// tail bound.
	m := tiger()
	exact, err := SolveFiniteHorizon(context.Background(), m, 3)
	if err != nil {
		t.Fatal(err)
	}
	pbvi, err := SolvePBVI(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	b := UniformBelief(2)
	vExact := exact.ValueAt(b, 3)
	vPBVI := pbvi.Value(b)
	// Remaining-stage reward is bounded by 10/(1−γ)·γ³; PBVI (a lower bound
	// on V*) plus that tail must dominate the 3-stage value.
	tail := math.Pow(m.Discount, 3) * 10 / (1 - m.Discount)
	if vExact > vPBVI+tail+1e-6 {
		t.Fatalf("exact 3-stage %v exceeds PBVI %v + tail %v", vExact, vPBVI, tail)
	}
}

func TestFiniteHorizonAgreesWithHandComputedChain(t *testing.T) {
	// Deterministic, fully observable 2-state chain (from the QMDP test):
	// V1(s1) = 1, V2(s1) = 1 + γ·1 = 1.5, V2(s0) = 0 + γ·V1(s1) = 0.5.
	m := NewModel(2, 2, 2, 0.5)
	m.T[0][0][0] = 1
	m.T[0][1][1] = 1
	m.T[1][0][1] = 1
	m.T[1][1][0] = 1
	for a := 0; a < 2; a++ {
		for s := 0; s < 2; s++ {
			m.Z[a][s][s] = 1 // fully observable
		}
	}
	m.R[0] = []float64{0, 1}
	m.R[1] = []float64{0, 0}

	p, err := SolveFiniteHorizon(context.Background(), m, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		belief Belief
		stage  int
		want   float64
	}{
		{PointBelief(2, 1), 1, 1},
		{PointBelief(2, 0), 1, 0},
		{PointBelief(2, 1), 2, 1.5},
		{PointBelief(2, 0), 2, 0.5},
	}
	for _, c := range cases {
		if got := p.ValueAt(c.belief, c.stage); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("V%d(%v) = %v, want %v", c.stage, c.belief, got, c.want)
		}
	}
	if p.Horizon() != 2 || p.NumVectors() < 1 {
		t.Fatalf("policy shape: horizon %d, %d vectors", p.Horizon(), p.NumVectors())
	}
}

func TestFiniteHorizonValueAtClamps(t *testing.T) {
	p, err := SolveFiniteHorizon(context.Background(), tiger(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b := UniformBelief(2)
	if p.ValueAt(b, -5) != p.ValueAt(b, 0) {
		t.Fatal("negative stage not clamped")
	}
	if p.ValueAt(b, 99) != p.ValueAt(b, 2) {
		t.Fatal("oversized stage not clamped")
	}
	if p.ValueAt(b, 0) != 0 {
		t.Fatal("terminal value not zero")
	}
}
