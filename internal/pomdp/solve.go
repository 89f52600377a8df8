package pomdp

import (
	"context"
	"fmt"
	"math"

	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
)

// QMDPPolicy approximates the POMDP by solving the underlying MDP and
// weighting its Q-values by the belief: Q(b, a) = Σ_s b(s)·Q(s, a). It is
// exact when uncertainty vanishes after one step and is a strong, cheap
// baseline for the detection problem.
type QMDPPolicy struct {
	q [][]float64 // q[s][a]
}

// SolveQMDP runs value iteration on the underlying MDP to the given residual
// tolerance and returns the policy. The context is polled once per value-
// iteration round; cancelling it returns ctx.Err(). A nil ctx never cancels.
func SolveQMDP(ctx context.Context, m *Model, tol float64, maxIter int) (*QMDPPolicy, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if tol <= 0 || maxIter < 1 {
		return nil, fmt.Errorf("pomdp: bad QMDP parameters tol=%v maxIter=%d", tol, maxIter)
	}
	sink := obs.From(ctx)
	defer sink.Span("pomdp.qmdp.solve")()
	v := make([]float64, m.NumStates)
	q := make([][]float64, m.NumStates)
	for s := range q {
		q[s] = make([]float64, m.NumActions)
	}
	for iter := 0; iter < maxIter; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sink.Count("pomdp.qmdp.iterations", 1)
		delta := 0.0
		for s := 0; s < m.NumStates; s++ {
			best := math.Inf(-1)
			for a := 0; a < m.NumActions; a++ {
				sum := m.R[a][s]
				for sp := 0; sp < m.NumStates; sp++ {
					if p := m.T[a][s][sp]; p > 0 {
						sum += m.Discount * p * v[sp]
					}
				}
				q[s][a] = sum
				if sum > best {
					best = sum
				}
			}
			if d := math.Abs(best - v[s]); d > delta {
				delta = d
			}
			v[s] = best
		}
		if delta < tol {
			break
		}
	}
	return &QMDPPolicy{q: q}, nil
}

// Action implements Policy.
func (p *QMDPPolicy) Action(b Belief) int {
	bestA, bestV := 0, math.Inf(-1)
	for a := range p.q[0] {
		v := 0.0
		for s := range b {
			v += b[s] * p.q[s][a]
		}
		if v > bestV {
			bestV, bestA = v, a
		}
	}
	return bestA
}

// Value implements Policy.
func (p *QMDPPolicy) Value(b Belief) float64 {
	best := math.Inf(-1)
	for a := range p.q[0] {
		v := 0.0
		for s := range b {
			v += b[s] * p.q[s][a]
		}
		if v > best {
			best = v
		}
	}
	return best
}

// alphaVec is a value hyperplane over beliefs, tagged with its action.
type alphaVec struct {
	v      []float64
	action int
}

// PBVIPolicy is a point-based value iteration policy: a set of α-vectors
// whose upper surface approximates the optimal value function.
type PBVIPolicy struct {
	alphas []alphaVec
}

// The PBVI belief set size, number of backup rounds and belief-sampling
// seed, adequate for detection-sized models (tens of states).
const (
	pbviBeliefs    = 120
	pbviIterations = 60
	pbviSeed       = 1
)

// SolvePBVI runs point-based value iteration. The belief set contains every
// corner (point) belief, the uniform belief, and random Dirichlet-ish
// samples up to pbviBeliefs points; each of pbviIterations rounds performs
// the standard PBVI backup at every point. The context is polled once per
// backup round; cancelling it returns ctx.Err(). A nil ctx never cancels.
func SolvePBVI(ctx context.Context, m *Model) (*PBVIPolicy, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sink := obs.From(ctx)
	defer sink.Span("pomdp.pbvi.solve")()

	src := rng.New(pbviSeed)
	beliefs := make([]Belief, 0, pbviBeliefs+m.NumStates+1)
	for s := 0; s < m.NumStates; s++ {
		beliefs = append(beliefs, PointBelief(m.NumStates, s))
	}
	beliefs = append(beliefs, UniformBelief(m.NumStates))
	for len(beliefs) < pbviBeliefs {
		b := make(Belief, m.NumStates)
		for s := range b {
			b[s] = src.Exponential(1)
		}
		b.Normalize()
		beliefs = append(beliefs, b)
	}

	// Initialize with the blind-policy lower bounds: for each action a, the
	// value of repeating a forever, α_a = R[a] + γ·T[a]·α_a (solved by fixed-
	// point iteration). Much tighter than R_min/(1−γ), so the point-based
	// backups converge in far fewer rounds.
	alphas := make([]alphaVec, 0, m.NumActions)
	for a := 0; a < m.NumActions; a++ {
		al := make([]float64, m.NumStates)
		next := make([]float64, m.NumStates)
		for it := 0; it < 300; it++ {
			delta := 0.0
			for s := 0; s < m.NumStates; s++ {
				sum := m.R[a][s]
				for sp := 0; sp < m.NumStates; sp++ {
					if p := m.T[a][s][sp]; p > 0 {
						sum += m.Discount * p * al[sp]
					}
				}
				next[s] = sum
				if d := math.Abs(sum - al[s]); d > delta {
					delta = d
				}
			}
			al, next = next, al
			if delta < 1e-9 {
				break
			}
		}
		alphas = append(alphas, alphaVec{v: al, action: a})
	}
	alphas = pruneDominated(alphas)

	dot := func(a []float64, b Belief) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}

	ns := m.NumStates
	g := make([]float64, ns)
	var proj []float64
	for iter := 0; iter < pbviIterations; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sink.Count("pomdp.backups", int64(len(beliefs)))
		proj = project(m, alphas, proj)
		k := len(alphas)
		slab := make([]float64, len(beliefs)*ns) // one row per new vector
		next := make([]alphaVec, 0, len(beliefs))
		for i, b := range beliefs {
			// Point-based backup at b.
			row := slab[i*ns : (i+1)*ns]
			bestVal := math.Inf(-1)
			bestAction := 0
			for a := 0; a < m.NumActions; a++ {
				// g_a = R[a] + γ Σ_o argmax_α gao_α·b.
				copy(g, m.R[a])
				for o := 0; o < m.NumObs; o++ {
					var bestG []float64
					bestDot := math.Inf(-1)
					for j := 0; j < k; j++ {
						gao := proj[((a*m.NumObs+o)*k+j)*ns:][:ns]
						if d := dot(gao, b); d > bestDot {
							bestDot, bestG = d, gao
						}
					}
					for s := 0; s < ns; s++ {
						g[s] += m.Discount * bestG[s]
					}
				}
				if d := dot(g, b); d > bestVal {
					bestVal, bestAction = d, a
					copy(row, g)
				}
			}
			next = append(next, alphaVec{v: row, action: bestAction})
		}
		alphas = pruneDominated(next)
	}
	return &PBVIPolicy{alphas: alphas}, nil
}

// project returns the projection gao_α(s) = Σ_s' T[a][s][s']·Z[a][s'][o]·α(s')
// of the j-th α-vector at offset ((a·O + o)·|Γ| + j)·S, reusing buf when it
// is large enough. No projection depends on a belief, so SolvePBVI computes
// each once per round, not once per belief point.
func project(m *Model, alphas []alphaVec, buf []float64) []float64 {
	ns := m.NumStates
	need := m.NumActions * m.NumObs * len(alphas) * ns
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	i := 0
	for a := 0; a < m.NumActions; a++ {
		for o := 0; o < m.NumObs; o++ {
			for _, al := range alphas {
				for s := 0; s < ns; s++ {
					sum := 0.0
					for sp := 0; sp < ns; sp++ {
						if p := m.T[a][s][sp]; p > 0 {
							sum += p * m.Z[a][sp][o] * al.v[sp]
						}
					}
					buf[i] = sum
					i++
				}
			}
		}
	}
	return buf
}

// pruneDominated removes duplicate and pointwise-dominated vectors.
func pruneDominated(vecs []alphaVec) []alphaVec {
	kept := make([]alphaVec, 0, len(vecs))
	for i, v := range vecs {
		dominated := false
		for j, w := range vecs {
			if i == j {
				continue
			}
			allLeq := true
			strictlyLess := false
			for s := range v.v {
				if v.v[s] > w.v[s]+1e-12 {
					allLeq = false
					break
				}
				if v.v[s] < w.v[s]-1e-12 {
					strictlyLess = true
				}
			}
			if allLeq && (strictlyLess || j < i) {
				// Dominated, or an exact duplicate of an earlier vector.
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return vecs[:1]
	}
	return kept
}

// Action implements Policy.
func (p *PBVIPolicy) Action(b Belief) int {
	_, a := p.best(b)
	return a
}

// Value implements Policy.
func (p *PBVIPolicy) Value(b Belief) float64 {
	v, _ := p.best(b)
	return v
}

// NumAlphaVectors reports the size of the value representation.
func (p *PBVIPolicy) NumAlphaVectors() int { return len(p.alphas) }

func (p *PBVIPolicy) best(b Belief) (float64, int) {
	bestV, bestA := math.Inf(-1), 0
	for _, al := range p.alphas {
		v := 0.0
		for s := range b {
			v += b[s] * al.v[s]
		}
		if v > bestV {
			bestV, bestA = v, al.action
		}
	}
	return bestV, bestA
}

// ThresholdPolicy is the myopic baseline used by the ablation benches: it
// inspects whenever the belief-expected state index exceeds a threshold.
type ThresholdPolicy struct {
	// InspectAction is the action issued above the threshold; ContinueAction
	// below.
	InspectAction, ContinueAction int
	// Threshold on the expected state index.
	Threshold float64
}

// Action implements Policy.
func (p ThresholdPolicy) Action(b Belief) int {
	e := b.Expectation(func(s int) float64 { return float64(s) })
	if e > p.Threshold {
		return p.InspectAction
	}
	return p.ContinueAction
}

// Value implements Policy (threshold policies carry no value estimate).
func (p ThresholdPolicy) Value(Belief) float64 { return math.NaN() }

// Simulate rolls a policy forward for steps slots from trueState, drawing
// transitions and observations from the model, and returns the accumulated
// discounted reward and the action/state/observation traces.
func Simulate(m *Model, pol Policy, trueState, steps int, src *rng.Source) (total float64, states, actions, observations []int) {
	b := UniformBelief(m.NumStates)
	s := trueState
	gamma := 1.0
	for t := 0; t < steps; t++ {
		a := pol.Action(b)
		total += gamma * m.R[a][s]
		gamma *= m.Discount
		sp := src.Choice(m.T[a][s])
		o := src.Choice(m.Z[a][sp])
		b, _ = m.Update(b, a, o)
		states = append(states, sp)
		actions = append(actions, a)
		observations = append(observations, o)
		s = sp
	}
	return total, states, actions, observations
}
