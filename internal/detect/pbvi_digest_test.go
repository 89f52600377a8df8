package detect_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"nmdetect/internal/detect"
	"nmdetect/internal/pomdp"
)

var update = flag.Bool("update", false, "rewrite testdata/pbvi_digests.txt from this build")

const pbviDigestFile = "testdata/pbvi_digests.txt"

// gridSteps sets the interior probe grid: every belief (k₁..k_S)/gridSteps
// with all kᵢ ≥ 1, which is 210 points for the detector's 5 states.
const gridSteps = 11

// probeBeliefs returns the beliefs a PBVI digest reads the policy at: every
// corner, the uniform belief and the interior grid.
func probeBeliefs(states int) []pomdp.Belief {
	var out []pomdp.Belief
	for s := 0; s < states; s++ {
		out = append(out, pomdp.PointBelief(states, s))
	}
	out = append(out, pomdp.UniformBelief(states))
	parts := make([]int, states)
	var fill func(i, left int)
	fill = func(i, left int) {
		if i == states-1 {
			parts[i] = left
			b := make(pomdp.Belief, states)
			for s, k := range parts {
				b[s] = float64(k) / gridSteps
			}
			out = append(out, b)
			return
		}
		for k := 1; k <= left-(states-1-i); k++ {
			parts[i] = k
			fill(i+1, left-k)
		}
	}
	fill(0, gridSteps)
	return out
}

// pbviDigest solves the detection POMDP for n meters and channel rates
// (fp, fn) and hashes the policy's size together with the bits of its value
// and action at every probe belief.
func pbviDigest(t *testing.T, n int, fp, fn float64) string {
	t.Helper()
	m, err := detect.BuildModel(detect.DefaultModelParams(n, fp, fn))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := pomdp.SolvePBVI(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	words := []uint64{uint64(pol.NumAlphaVectors())}
	for _, b := range probeBeliefs(m.NumStates) {
		words = append(words, math.Float64bits(pol.Value(b)), uint64(pol.Action(b)))
	}
	if err := binary.Write(h, binary.LittleEndian, words); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPBVIDigests pins the bits of the PBVI policy every batch, fleet and
// nmrepro run solves, at three community sizes and four channels. The
// experiments golden and TestPresetDigests run QMDP, so without this file a
// change to the PBVI kernel could move the policy unseen. A change that only
// speeds the solver must leave the file untouched; one that moves bits on
// purpose rewrites it with -update in the same commit.
func TestPBVIDigests(t *testing.T) {
	var got bytes.Buffer
	for _, n := range []int{8, 24, 500} {
		for _, ch := range [][2]float64{{0.05, 0.3}, {0.1, 0.2}, {0.02, 0.5}, {0.01, 0.3}} {
			fmt.Fprintf(&got, "n=%d fp=%v fn=%v %s\n", n, ch[0], ch[1], pbviDigest(t, n, ch[0], ch[1]))
		}
	}
	if *update {
		if err := os.WriteFile(pbviDigestFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pbviDigestFile)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/detect -run TestPBVIDigests -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("PBVI digests moved:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
