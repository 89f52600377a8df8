// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distributions used throughout the simulator.
//
// Every stochastic component of the reproduction (household generation, solar
// cloud processes, price noise, cross-entropy sampling, POMDP simulation)
// draws from an rng.Source derived from a single experiment seed, so a run is
// exactly repeatable and independent components can be re-ordered without
// perturbing each other's streams.
//
// The core generator is SplitMix64 (Steele, Lea, Flood — "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014), chosen because it is trivial
// to implement from scratch, passes BigCrush, and supports cheap stream
// derivation: a derived stream's seed is a hash of the parent seed and a
// label, so adding a new consumer never shifts existing streams.
package rng

import (
	"math"
)

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; derive one Source per goroutine with Derive.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// splitmix64 advances the state and returns the next 64-bit output.
func (s *Source) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 { return s.next() }

// State exposes the generator's current state word.
func (s *Source) State() uint64 { return s.state }

// Derive returns a new independent Source identified by label. Deriving with
// the same label from the same parent state always yields the same stream.
// The parent's state is not advanced, so derivation order is irrelevant.
func (s *Source) Derive(label string) *Source {
	h := s.state ^ 0x51afd3ed1cabef17
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3 // FNV-1a prime
	}
	// Run the mixed value through one splitmix finalization so that labels
	// differing in one bit yield well-separated states.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return &Source{state: h ^ (h >> 31)}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.next() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (s *Source) Normal(mean, stddev float64) float64 {
	// Draw u1 in (0,1] to keep the log finite.
	u1 := 1.0 - s.Float64()
	u2 := s.Float64()
	z := math.Sqrt(-2.0*math.Log(u1)) * cos(2.0*math.Pi*u2)
	return mean + stddev*z
}

// cos returns math.Cos(x) bit for bit for x in [0, 2π], without a
// data-dependent branch. It runs math.cos's Cody–Waite reduction to the
// nearest even octant and evaluates the same expressions, but computes both
// polynomials and picks the octant's one, and its sign, with bit masks:
// math.Cos branches on the octant, which a uniform argument mispredicts about
// half the time.
func cos(x float64) float64 {
	const (
		pi4a = 7.85398125648498535156e-1 // π/4 split into three parts
		pi4b = 3.77489470793079817668e-8
		pi4c = 2.69515142907905952645e-15

		// The two minimax polynomials' coefficients (Cephes sin.c).
		sin0 = 1.58962301576546568060e-10
		sin1 = -2.50507477628578072866e-8
		sin2 = 2.75573136213857245213e-6
		sin3 = -1.98412698295895385996e-4
		sin4 = 8.33333333332211858878e-3
		sin5 = -1.66666666666666307295e-1

		cos0 = -1.13585365213876817300e-11
		cos1 = 2.08757008419747316778e-9
		cos2 = -2.75573141792967388112e-7
		cos3 = 2.48015872888517045348e-5
		cos4 = -1.38888888888730564116e-3
		cos5 = 4.16666666666665929218e-2
	)
	j := int(x * (4 / math.Pi)) // octant, 0..8
	j += j & 1                  // map zeros to origin: the next even octant
	y := float64(j)
	z := ((x - y*pi4a) - y*pi4b) - y*pi4c
	zz := z * z
	s := z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
	c := 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	// Octants 2 and 6 take the sine polynomial; 2 and 4 are negative.
	useSin := -uint64(j >> 1 & 1)
	neg := uint64((j+2)&4) << 61
	return math.Float64frombits((math.Float64bits(c)&^useSin | math.Float64bits(s)&useSin) ^ neg)
}

// TruncNormal returns a normal(mean, stddev) value truncated to [lo, hi] by
// rejection, falling back to clamping after maxTries rejections so the call
// always terminates even for extreme bounds.
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		panic("rng: TruncNormal with lo > hi")
	}
	const maxTries = 64
	for i := 0; i < maxTries; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return Clamp(mean, lo, hi)
}

// Exponential returns an exponentially distributed value with the given rate
// (mean 1/rate).
func (s *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(1.0-s.Float64()) / rate
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly permutes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a pseudo-random index into weights, selected with
// probability proportional to each weight. Weights must be non-negative and
// sum to a positive value.
func (s *Source) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Choice with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Choice with non-positive total weight")
	}
	target := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
