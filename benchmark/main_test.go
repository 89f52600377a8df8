package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesDriver pins BENCHMARK.json to the driver's workloads and
// metric table.
func TestSpecMatchesDriver(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, driver runs %s", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want []string) {
		var got []string
		for _, m := range listed {
			got = append(got, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q in the driver", kind, m.Name, m.Unit, units[m.Name])
			}
		}
		sort.Strings(got)
		want = append([]string(nil), want...)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s metrics in BENCHMARK.json:\n  %v\ndriver emits:\n  %v", kind, got, want)
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer())
}

// TestToyWorkloadsEmitEveryMetric runs the toy size of every workload,
// untraced and traced, the way the benchmark is invoked, and checks that
// each emits every metric BENCHMARK.json names with its unit and passes its
// correctness gate.
func TestToyWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	bin := t.TempDir()
	for _, b := range [][]string{
		{"-o", filepath.Join(bin, "nmbench"), "."},
		{"-o", filepath.Join(bin, "nmserve"), "nmdetect/cmd/nmserve"},
	} {
		if out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, listed := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			cmd := exec.Command(filepath.Join(bin, "nmbench"), "--workload", w.Name, "--seed", "3",
				"--seconds", "1", "--trace", []string{"0", "1"}[trace], "-toy",
				"-nmserve", filepath.Join(bin, "nmserve"), "-workdir", filepath.Join(t.TempDir(), "work"))
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.Name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %d: last line: %v\n%s", w.Name, trace, err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(listed))
			}
			for _, m := range listed {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
