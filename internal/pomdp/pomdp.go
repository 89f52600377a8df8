// Package pomdp implements the finite partially observable Markov decision
// process machinery of Section 4.2 (after Kaelbling, Littman, Cassandra [4]):
// the model ⟨S, O, A, T, R, Ω⟩, exact Bayesian belief updates, and two
// solvers — QMDP (fast, treats state uncertainty as vanishing after one
// step) and point-based value iteration (PBVI, maintains α-vectors over a
// sampled belief set and handles information-gathering trade-offs).
//
// The detection layer instantiates this with S = bucketed counts of hacked
// smart meters, A = {continue, inspect}, and O = the bucketed output of the
// SVR single-event detector.
package pomdp

import (
	"errors"
	"fmt"
	"math"
)

// Model is a finite POMDP ⟨S, O, A, T, R, Ω⟩.
type Model struct {
	// NumStates, NumActions and NumObs size the spaces.
	NumStates, NumActions, NumObs int
	// T[a][s][s'] is the transition probability P(s' | s, a).
	T [][][]float64
	// Z[a][s'][o] is the observation probability P(o | s', a) — the paper's
	// Ω(o, a, s).
	Z [][][]float64
	// R[a][s] is the expected immediate reward of taking action a in state s.
	R [][]float64
	// Discount is the reward discount factor in [0, 1).
	Discount float64
}

// NewModel allocates a zero model of the given dimensions.
func NewModel(states, actions, obs int, discount float64) *Model {
	m := &Model{
		NumStates:  states,
		NumActions: actions,
		NumObs:     obs,
		Discount:   discount,
	}
	m.T = make([][][]float64, actions)
	m.Z = make([][][]float64, actions)
	m.R = make([][]float64, actions)
	for a := 0; a < actions; a++ {
		m.T[a] = make([][]float64, states)
		m.Z[a] = make([][]float64, states)
		m.R[a] = make([]float64, states)
		for s := 0; s < states; s++ {
			m.T[a][s] = make([]float64, states)
			m.Z[a][s] = make([]float64, obs)
		}
	}
	return m
}

// Validate checks dimensions, that all probability rows are stochastic and
// that every reward is finite.
func (m *Model) Validate() error {
	if m.NumStates <= 0 || m.NumActions <= 0 || m.NumObs <= 0 {
		return fmt.Errorf("pomdp: empty space (S=%d, A=%d, O=%d)", m.NumStates, m.NumActions, m.NumObs)
	}
	// NaN fails every ordered comparison, so it needs its own check.
	if math.IsNaN(m.Discount) || m.Discount < 0 || m.Discount >= 1 {
		return fmt.Errorf("pomdp: discount %v out of [0,1)", m.Discount)
	}
	if len(m.T) != m.NumActions || len(m.Z) != m.NumActions || len(m.R) != m.NumActions {
		return errors.New("pomdp: action dimension mismatch")
	}
	for a := 0; a < m.NumActions; a++ {
		if len(m.T[a]) != m.NumStates || len(m.Z[a]) != m.NumStates || len(m.R[a]) != m.NumStates {
			return fmt.Errorf("pomdp: state dimension mismatch for action %d", a)
		}
		for s, r := range m.R[a] {
			if !finite(r) {
				return fmt.Errorf("pomdp: R[%d][%d] = %v is not finite", a, s, r)
			}
		}
		for s := 0; s < m.NumStates; s++ {
			if err := checkStochastic(m.T[a][s], m.NumStates, fmt.Sprintf("T[%d][%d]", a, s)); err != nil {
				return err
			}
			if err := checkStochastic(m.Z[a][s], m.NumObs, fmt.Sprintf("Z[%d][%d]", a, s)); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkStochastic(row []float64, n int, name string) error {
	if len(row) != n {
		return fmt.Errorf("pomdp: %s has %d entries, want %d", name, len(row), n)
	}
	sum := 0.0
	for _, p := range row {
		if !finite(p) {
			return fmt.Errorf("pomdp: %s has non-finite probability %v", name, p)
		}
		if p < -1e-12 {
			return fmt.Errorf("pomdp: %s has negative probability %v", name, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("pomdp: %s sums to %v, want 1", name, sum)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Belief is a probability distribution over states.
type Belief []float64

// UniformBelief returns the uniform distribution over n states.
func UniformBelief(n int) Belief {
	b := make(Belief, n)
	for i := range b {
		b[i] = 1 / float64(n)
	}
	return b
}

// PointBelief returns the distribution concentrated on state s.
func PointBelief(n, s int) Belief {
	b := make(Belief, n)
	b[s] = 1
	return b
}

// Normalize rescales the belief to sum to one in place. A zero belief becomes
// uniform.
func (b Belief) Normalize() {
	sum := 0.0
	for _, v := range b {
		sum += v
	}
	if sum <= 0 {
		for i := range b {
			b[i] = 1 / float64(len(b))
		}
		return
	}
	for i := range b {
		b[i] /= sum
	}
}

// MAP returns the maximum a-posteriori state.
func (b Belief) MAP() int {
	best, idx := -1.0, 0
	for s, v := range b {
		if v > best {
			best, idx = v, s
		}
	}
	return idx
}

// Expectation returns Σ b(s)·value(s).
func (b Belief) Expectation(value func(s int) float64) float64 {
	e := 0.0
	for s, v := range b {
		e += v * value(s)
	}
	return e
}

// Update performs the exact Bayesian belief update after taking action a and
// observing o:
//
//	b'(s') ∝ Z[a][s'][o] · Σ_s T[a][s][s'] · b(s)
//
// It returns the posterior and the observation's prior likelihood P(o | b, a)
// (useful for anomaly scoring). A zero-likelihood observation — possible when
// the calibrated Ω assigns an observation no mass anywhere the belief
// reaches — keeps the *predicted* belief (transition applied, observation
// ignored) rather than collapsing to uniform.
func (m *Model) Update(b Belief, a, o int) (Belief, float64) {
	pred := make(Belief, m.NumStates)
	for sp := 0; sp < m.NumStates; sp++ {
		acc := 0.0
		for s := 0; s < m.NumStates; s++ {
			if b[s] == 0 {
				continue
			}
			acc += m.T[a][s][sp] * b[s]
		}
		pred[sp] = acc
	}
	post := make(Belief, m.NumStates)
	like := 0.0
	for sp := 0; sp < m.NumStates; sp++ {
		post[sp] = m.Z[a][sp][o] * pred[sp]
		like += post[sp]
	}
	if like <= 0 {
		pred.Normalize()
		return pred, 0
	}
	post.Normalize()
	return post, like
}

// Policy maps a belief to an action.
type Policy interface {
	Action(b Belief) int
	// Value estimates the expected discounted reward of following the
	// policy from belief b.
	Value(b Belief) float64
}
