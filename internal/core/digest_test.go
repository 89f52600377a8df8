package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmdetect/internal/core"
	"nmdetect/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/preset_digests.txt from this build")

const digestFile = "testdata/preset_digests.txt"

// reduced shrinks a scenario to a size the test suite can afford: 8 meters,
// the QMDP policy, 3 bootstrap days and 2 monitored days. Everything else
// (attack, campaign, noise, faults, game) stays as the scenario states it.
func reduced(s scenario.Spec) scenario.Spec {
	s.N = 8
	s.Detector.Solver = "qmdp"
	s.Horizon.BootstrapDays = 3
	s.Horizon.MonitorDays = 2
	return s
}

// digestCases are every scenarios/*.json preset at reduced size, plus three
// worlds the presets leave out: a noisy day-ahead PV forecast, faults with
// PV-sensor outages and reading dropout, and a sharded game solve.
func digestCases(t *testing.T) []scenario.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	var specs []scenario.Spec
	for _, p := range paths {
		spec, err := scenario.LoadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		spec.Name = strings.TrimSuffix(filepath.Base(p), ".json")
		specs = append(specs, reduced(spec))
	}
	sigma := reduced(scenario.Default(8, 42))
	sigma.Name, sigma.PV.ForecastSigma = "forecast-sigma-0.05", 0.05
	faults := reduced(scenario.Default(8, 42))
	faults.Name, faults.Faults = "faults-pv-outage-dropout", &scenario.Faults{DropoutRate: 0.05, PVOutageRate: 0.3}
	shards := reduced(scenario.Default(8, 42))
	shards.Name, shards.Game.Shards = "game-shards-2", 2
	return append(specs, sigma, faults, shards)
}

// presetDigest builds the system, monitors the scenario's days with the
// aware kit and hashes the results together with the four calibrated channel
// rates. The results are hashed as JSON, whose shortest round-trip floats
// pin every bit: gob's bytes depend on the type IDs the process handed out
// before, so they change with the tests that ran first.
func presetDigest(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	opts, err := spec.CoreOptions()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.NewRunner(sys.Aware, camp, true, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Run(ctx, spec.Horizon.MonitorDays)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(results); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{sys.AwareFP, sys.AwareFN, sys.BlindFP, sys.BlindFN} {
		if err := binary.Write(h, binary.LittleEndian, math.Float64bits(v)); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPresetDigests pins the bits every scenario produces end to end: the
// stored days of a monitored run and the channel rates calibration measured.
// A change that only speeds the solve path must leave the file untouched;
// one that moves bits on purpose rewrites it with -update in the same
// commit.
func TestPresetDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and monitors 20 systems")
	}
	var got bytes.Buffer
	for _, spec := range digestCases(t) {
		fmt.Fprintf(&got, "%s %s\n", spec.Name, presetDigest(t, spec))
	}
	if *update {
		if err := os.WriteFile(digestFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/core -run TestPresetDigests -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("preset digests moved:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
