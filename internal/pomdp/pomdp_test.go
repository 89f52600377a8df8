package pomdp

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/rng"
)

// tiger builds the classic tiger POMDP (Kaelbling et al. [4]): the canonical
// correctness check for POMDP solvers.
// States: 0 = tiger-left, 1 = tiger-right.
// Actions: 0 = listen, 1 = open-left, 2 = open-right.
// Observations: 0 = hear-left, 1 = hear-right.
func tiger() *Model {
	m := NewModel(2, 3, 2, 0.95)
	for s := 0; s < 2; s++ {
		// Listening preserves the state; opening resets the episode.
		m.T[0][s][s] = 1
		m.T[1][s] = []float64{0.5, 0.5}
		m.T[2][s] = []float64{0.5, 0.5}
	}
	// Listening is 85% accurate; opening yields no information.
	m.Z[0][0] = []float64{0.85, 0.15}
	m.Z[0][1] = []float64{0.15, 0.85}
	for a := 1; a <= 2; a++ {
		for s := 0; s < 2; s++ {
			m.Z[a][s] = []float64{0.5, 0.5}
		}
	}
	// Rewards: listen −1; open wrong door −100; open right door +10.
	m.R[0] = []float64{-1, -1}
	m.R[1] = []float64{-100, 10} // open-left: bad if tiger-left
	m.R[2] = []float64{10, -100} // open-right: bad if tiger-right
	return m
}

func TestModelValidate(t *testing.T) {
	if err := tiger().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(m *Model)
	}{
		{"non-stochastic T", func(m *Model) { m.T[0][0] = []float64{0.5, 0.4} }},
		{"negative probability", func(m *Model) { m.Z[0][0][0], m.Z[0][0][1] = -0.1, 1.1 }},
		{"discount 1", func(m *Model) { m.Discount = 1.0 }},
		{"dimension mismatch", func(m *Model) { m.NumStates = 3 }},
		{"NaN discount", func(m *Model) { m.Discount = math.NaN() }},
		{"NaN reward", func(m *Model) { m.R[0][0] = math.NaN() }},
		{"+Inf reward", func(m *Model) { m.R[1][1] = math.Inf(1) }},
		{"-Inf reward", func(m *Model) { m.R[2][0] = math.Inf(-1) }},
		{"NaN in T", func(m *Model) { m.T[0][0] = []float64{math.NaN(), 1} }},
		{"+Inf in T", func(m *Model) { m.T[1][1] = []float64{math.Inf(1), 0} }},
		{"-Inf in T", func(m *Model) { m.T[2][0] = []float64{math.Inf(-1), 1} }},
		{"NaN in Z", func(m *Model) { m.Z[0][1] = []float64{math.NaN(), 1} }},
		{"+Inf in Z", func(m *Model) { m.Z[1][0] = []float64{0, math.Inf(1)} }},
		{"-Inf in Z", func(m *Model) { m.Z[2][1] = []float64{1, math.Inf(-1)} }},
	} {
		m := tiger()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestBeliefBasics(t *testing.T) {
	u := UniformBelief(4)
	for _, v := range u {
		if v != 0.25 {
			t.Fatalf("uniform = %v", u)
		}
	}
	p := PointBelief(3, 1)
	if p[0] != 0 || p[1] != 1 || p[2] != 0 {
		t.Fatalf("point = %v", p)
	}
	if p.MAP() != 1 {
		t.Fatalf("MAP = %d", p.MAP())
	}
	b := Belief{2, 6}
	b.Normalize()
	if b[0] != 0.25 || b[1] != 0.75 {
		t.Fatalf("normalized = %v", b)
	}
	zero := Belief{0, 0}
	zero.Normalize()
	if zero[0] != 0.5 {
		t.Fatalf("zero belief normalized to %v", zero)
	}
	e := Belief{0.25, 0.75}.Expectation(func(s int) float64 { return float64(s * 10) })
	if e != 7.5 {
		t.Fatalf("Expectation = %v", e)
	}
}

func TestBeliefUpdateBayes(t *testing.T) {
	m := tiger()
	b := UniformBelief(2)
	// Listen, hear-left: posterior should shift to tiger-left at exactly
	// 0.85 (symmetric prior, 85% accurate observation).
	post, like := m.Update(b, 0, 0)
	if math.Abs(post[0]-0.85) > 1e-12 {
		t.Fatalf("posterior = %v", post)
	}
	if math.Abs(like-0.5) > 1e-12 {
		t.Fatalf("likelihood = %v, want 0.5", like)
	}
	// A second consistent observation sharpens further: 0.85²/(0.85²+0.15²).
	post2, _ := m.Update(post, 0, 0)
	want := 0.85 * 0.85 / (0.85*0.85 + 0.15*0.15)
	if math.Abs(post2[0]-want) > 1e-12 {
		t.Fatalf("posterior² = %v, want %v", post2[0], want)
	}
	// A contradicting observation pulls back toward uniform.
	post3, _ := m.Update(post, 0, 1)
	if math.Abs(post3[0]-0.5) > 1e-12 {
		t.Fatalf("contradicted posterior = %v", post3)
	}
}

func TestBeliefUpdateResetsOnOpen(t *testing.T) {
	m := tiger()
	b := PointBelief(2, 0)
	post, _ := m.Update(b, 1, 0) // open a door: next episode is 50/50
	if math.Abs(post[0]-0.5) > 1e-12 {
		t.Fatalf("post-open belief = %v", post)
	}
}

func TestQMDPOnKnownMDP(t *testing.T) {
	// Fully observable 2-state chain: action 0 stays (reward 0 in s0, 1 in
	// s1), action 1 jumps deterministically to the other state (reward 0).
	m := NewModel(2, 2, 1, 0.5)
	m.T[0][0][0] = 1
	m.T[0][1][1] = 1
	m.T[1][0][1] = 1
	m.T[1][1][0] = 1
	for a := 0; a < 2; a++ {
		for s := 0; s < 2; s++ {
			m.Z[a][s][0] = 1
		}
	}
	m.R[0] = []float64{0, 1}
	m.R[1] = []float64{0, 0}
	pol, err := SolveQMDP(context.Background(), m, 1e-10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// V(s1) = 1/(1−γ) = 2; V(s0) = 0 + γ·V(s1) via jump = 1.
	if got := pol.Value(PointBelief(2, 1)); math.Abs(got-2) > 1e-8 {
		t.Fatalf("V(s1) = %v, want 2", got)
	}
	if got := pol.Value(PointBelief(2, 0)); math.Abs(got-1) > 1e-8 {
		t.Fatalf("V(s0) = %v, want 1", got)
	}
	if pol.Action(PointBelief(2, 0)) != 1 {
		t.Fatal("should jump from s0")
	}
	if pol.Action(PointBelief(2, 1)) != 0 {
		t.Fatal("should stay in s1")
	}
}

func TestQMDPBadParams(t *testing.T) {
	m := tiger()
	if _, err := SolveQMDP(context.Background(), m, 0, 100); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := SolveQMDP(context.Background(), m, 1e-6, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	m.Discount = 2
	if _, err := SolveQMDP(context.Background(), m, 1e-6, 100); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestPBVITigerListensWhenUncertain(t *testing.T) {
	pol, err := SolvePBVI(context.Background(), tiger())
	if err != nil {
		t.Fatal(err)
	}
	if a := pol.Action(UniformBelief(2)); a != 0 {
		t.Fatalf("uniform belief action = %d, want listen", a)
	}
	// Confident beliefs open the opposite door.
	if a := pol.Action(Belief{0.97, 0.03}); a != 2 {
		t.Fatalf("tiger-left belief action = %d, want open-right", a)
	}
	if a := pol.Action(Belief{0.03, 0.97}); a != 1 {
		t.Fatalf("tiger-right belief action = %d, want open-left", a)
	}
	if pol.NumAlphaVectors() < 2 {
		t.Fatalf("suspiciously few alpha vectors: %d", pol.NumAlphaVectors())
	}
}

func TestPBVITigerValueShape(t *testing.T) {
	pol, err := SolvePBVI(context.Background(), tiger())
	if err != nil {
		t.Fatal(err)
	}
	// Knowing the tiger's location is worth more than not knowing.
	vPoint := pol.Value(PointBelief(2, 0))
	vUniform := pol.Value(UniformBelief(2))
	if vPoint <= vUniform {
		t.Fatalf("V(point)=%v not above V(uniform)=%v", vPoint, vUniform)
	}
	// The optimal tiger value at uniform belief is positive (listening pays).
	if vUniform <= 0 {
		t.Fatalf("V(uniform) = %v, want > 0", vUniform)
	}
}

func TestPBVIBeatsThresholdOnTiger(t *testing.T) {
	m := tiger()
	pbvi, err := SolvePBVI(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	// A naive policy that always opens left.
	naive := ThresholdPolicy{InspectAction: 1, ContinueAction: 1, Threshold: -1}
	sumP, sumN := 0.0, 0.0
	for trial := 0; trial < 30; trial++ {
		src1 := rng.New(uint64(trial + 1))
		src2 := rng.New(uint64(trial + 1))
		p, _, _, _ := Simulate(m, pbvi, trial%2, 40, src1)
		n, _, _, _ := Simulate(m, naive, trial%2, 40, src2)
		sumP += p
		sumN += n
	}
	if sumP <= sumN {
		t.Fatalf("PBVI total %v not above naive %v", sumP, sumN)
	}
}

func TestPBVIOptionsValidation(t *testing.T) {
	m := tiger()
	m.Discount = -1
	if _, err := SolvePBVI(context.Background(), m); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := ThresholdPolicy{InspectAction: 1, ContinueAction: 0, Threshold: 1.5}
	if a := p.Action(Belief{1, 0, 0}); a != 0 {
		t.Fatalf("low belief action = %d", a)
	}
	if a := p.Action(Belief{0, 0, 1}); a != 1 {
		t.Fatalf("high belief action = %d", a)
	}
	if !math.IsNaN(p.Value(Belief{1})) {
		t.Fatal("threshold policy should have NaN value")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := tiger()
	pol, err := SolveQMDP(context.Background(), m, 1e-8, 500)
	if err != nil {
		t.Fatal(err)
	}
	r1, s1, a1, o1 := Simulate(m, pol, 0, 50, rng.New(3))
	r2, s2, a2, o2 := Simulate(m, pol, 0, 50, rng.New(3))
	if r1 != r2 || len(s1) != 50 || len(a1) != 50 || len(o1) != 50 {
		t.Fatal("simulation shape or reward mismatch")
	}
	for i := range s1 {
		if s1[i] != s2[i] || a1[i] != a2[i] || o1[i] != o2[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPruneDominatedKeepsSurface(t *testing.T) {
	vecs := []alphaVec{
		{v: []float64{1, 0}, action: 0},
		{v: []float64{0, 1}, action: 1},
		{v: []float64{0.2, 0.2}, action: 2}, // dominated by neither alone...
	}
	// {0.2, 0.2} is below max(1,0)/(0,1) surface everywhere? At b=(0.5,0.5):
	// 0.2 < 0.5. But pointwise it is not dominated by either single vector.
	kept := pruneDominated(vecs)
	if len(kept) != 3 {
		t.Fatalf("pointwise-undominated vector pruned: %d kept", len(kept))
	}
	vecs = append(vecs, alphaVec{v: []float64{0.1, -0.1}, action: 0}) // dominated by {1,0}? 0.1<1, -0.1<0 yes
	kept = pruneDominated(vecs)
	if len(kept) != 3 {
		t.Fatalf("dominated vector kept: %d", len(kept))
	}
	// Exact duplicates collapse.
	dups := []alphaVec{{v: []float64{1, 1}, action: 0}, {v: []float64{1, 1}, action: 1}}
	if kept := pruneDominated(dups); len(kept) != 1 {
		t.Fatalf("duplicates kept: %d", len(kept))
	}
}
