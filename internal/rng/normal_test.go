package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// normalBitsDigest is the SHA-256 of the draws normalDigest makes. Every
// downstream golden (the experiments file, the preset and PBVI digests, the
// equivalence tests) rests on these bits; a change that moves them on purpose
// rewrites this constant in the same commit.
const normalBitsDigest = "e1893db3ad053a3020acd291401c75fd25274c20f62724778b3dc30b2155e817"

// normalDigest hashes the IEEE-754 bits of 10⁶ Normal and TruncNormal draws:
// rows for a few seeds, plus the argument tuples production code passes —
// CE's [0, C] battery box with the mean at either bound (wide initial and
// MinStd-narrow spreads), solar's cloud and forecast noise and household
// base-load scaling.
func normalDigest() string {
	rows := []struct {
		seed             uint64
		trunc            bool
		mean, sd, lo, hi float64
	}{
		{seed: 1, mean: 0, sd: 1},
		{seed: 42, mean: 0, sd: 1},
		{seed: 7, mean: 3, sd: 2},
		{seed: 3, trunc: true, mean: 0, sd: 2.4, lo: 0, hi: 8},
		{seed: 4, trunc: true, mean: 8, sd: 0.008, lo: 0, hi: 8},
		{seed: 5, trunc: true, mean: 1, sd: 0.08, lo: 0.5, hi: 1.5},
		{seed: 6, trunc: true, mean: 1, sd: 0.02, lo: 0.6, hi: 1.4},
		{seed: 8, trunc: true, mean: 1, sd: 0.05, lo: 0.8, hi: 1.2},
	}
	const perRow = 1_000_000 / 8
	h := sha256.New()
	var buf [8]byte
	for _, r := range rows {
		s := New(r.seed)
		for i := 0; i < perRow; i++ {
			var v float64
			if r.trunc {
				v = s.TruncNormal(r.mean, r.sd, r.lo, r.hi)
			} else {
				v = s.Normal(r.mean, r.sd)
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestNormalBits pins the sampler's exact bits, which no statistical test
// can: a faster Normal must reproduce every draw, not just the moments.
func TestNormalBits(t *testing.T) {
	t.Run("digest", func(t *testing.T) {
		if got := normalDigest(); got != normalBitsDigest {
			t.Fatalf("Normal/TruncNormal digest = %s, want %s", got, normalBitsDigest)
		}
	})
	// The branch-free cosine must equal math.Cos on the arguments Normal
	// passes it: 10⁷ seeded uniforms, plus 4 ULP either side of each octant
	// boundary u = k/8 and the largest u Float64 returns.
	t.Run("cosine", func(t *testing.T) {
		check := func(u float64) {
			x := 2.0 * math.Pi * u
			if got, want := cos(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cos(2π·%v) = %v (%#x), math.Cos = %v (%#x)",
					u, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for k := 0; k <= 8; k++ {
			down, up := float64(k)/8, float64(k)/8
			check(up)
			for i := 0; i < 4; i++ {
				if down = math.Nextafter(down, -1); down >= 0 {
					check(down)
				}
				if up = math.Nextafter(up, 2); up <= 1 {
					check(up)
				}
			}
		}
		check(1 - 0x1p-53)
		s := New(2024)
		for i := 0; i < 10_000_000; i++ {
			check(s.Float64())
		}
	})
}

var benchSink float64

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	acc := 0.0
	for i := 0; i < b.N; i++ {
		acc += s.Normal(0, 1)
	}
	benchSink = acc
}

// BenchmarkTruncNormal draws from CE's initial battery density: a [0, 8] kWh
// box, mean at mid-box, std 0.3 of the width.
func BenchmarkTruncNormal(b *testing.B) {
	s := New(1)
	acc := 0.0
	for i := 0; i < b.N; i++ {
		acc += s.TruncNormal(4, 2.4, 0, 8)
	}
	benchSink = acc
}
