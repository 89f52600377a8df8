package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/experiments"
)

func TestRoundTripPreservesSpecAndID(t *testing.T) {
	orig := Default(120, 7)
	orig.Name = "round-trip"
	orig.Attack = Attack{Kind: "scale", From: 10, To: 14, Factor: 0.5}
	orig.Game.JacobiBlock = 8

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the spec:\n orig %+v\n back %+v", orig, back)
	}
	if orig.ID() != back.ID() {
		t.Fatalf("round trip changed the ID: %s -> %s", orig.ID(), back.ID())
	}
}

func TestIDContentSemantics(t *testing.T) {
	base := Default(500, 42)
	if !strings.HasPrefix(base.ID(), "sc-") || len(base.ID()) != len("sc-")+16 {
		t.Fatalf("malformed ID %q", base.ID())
	}

	// Workers is execution-only: it must not move the hash.
	par := base
	par.Game.Workers = 8
	if par.ID() != base.ID() {
		t.Fatalf("Workers changed the ID: %s vs %s", par.ID(), base.ID())
	}

	// Everything else is content.
	for name, mutate := range map[string]func(*Spec){
		"seed":   func(s *Spec) { s.Seed = 43 },
		"n":      func(s *Spec) { s.N = 400 },
		"name":   func(s *Spec) { s.Name = "renamed" },
		"jacobi": func(s *Spec) { s.Game.JacobiBlock = 4 },
		"attack": func(s *Spec) { s.Attack.To = 18 },
		"tau":    func(s *Spec) { s.Detector.FlagTau = 0.6 },
	} {
		mut := base
		mutate(&mut)
		if mut.ID() == base.ID() {
			t.Errorf("%s: content mutation did not change the ID", name)
		}
	}
}

func TestDefaultSpecLowersToPackageDefaults(t *testing.T) {
	spec := Default(500, 42)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	if got, want := spec.CommunityConfig(), community.DefaultConfig(500, 42); !reflect.DeepEqual(got, want) {
		t.Errorf("CommunityConfig diverges from community.DefaultConfig:\n got %+v\nwant %+v", got, want)
	}
	opts, err := spec.CoreOptions()
	if err != nil {
		t.Fatal(err)
	}
	if want := core.DefaultOptions(500, 42); !reflect.DeepEqual(opts, want) {
		t.Errorf("CoreOptions diverges from core.DefaultOptions:\n got %+v\nwant %+v", opts, want)
	}
}

func TestPresetsReproduceRecordedHarnessConfig(t *testing.T) {
	// The recorded seed-42 figures were produced with
	// experiments.DefaultConfig(); every flat preset must lower to exactly
	// that so `nmrepro -scenario fig6` stays byte-identical to the archive.
	// Two deliberate exceptions: scale500 is the same world with the
	// hierarchical solver's shard count set, differing in nothing else, and
	// serve-smoke is the tiny CI daemon world (8 customers, short bootstrap,
	// QMDP), pinned field-by-field here so it cannot drift silently.
	for _, name := range PresetNames() {
		spec, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("Preset(%q).Name = %q", name, spec.Name)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("Preset(%q) invalid: %v", name, err)
		}
		want := experiments.DefaultConfig()
		switch name {
		case "scale500":
			want.Shards = 8
		case "serve-smoke":
			want.N = 8
			want.BootstrapDays = 4
			want.MonitorDays = 3
			want.GameSweeps = 2
			want.Solver = core.SolverQMDP
		}
		if got := spec.ExperimentsConfig(); !reflect.DeepEqual(got, want) {
			t.Errorf("Preset(%q).ExperimentsConfig diverges:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestExperimentsConfigOverrides(t *testing.T) {
	spec := Default(500, 42)
	spec.PV.MeasurementNoise = 0 // exactly-zero noise -> -1 sentinel
	spec.Detector.FlagTau = 0.7
	spec.Tariff.SellBackW = 2.0
	cfg := spec.ExperimentsConfig()
	if cfg.MeasurementNoise != -1 {
		t.Errorf("zero measurement noise should lower to the -1 sentinel, got %v", cfg.MeasurementNoise)
	}
	if cfg.FlagTau != 0.7 || cfg.SellBackW != 2.0 {
		t.Errorf("overrides not forwarded: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("lowered config invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]func(*Spec){
		"tiny community":   func(s *Spec) { s.N = 2 },
		"short bootstrap":  func(s *Spec) { s.Horizon.BootstrapDays = 2 },
		"no monitor days":  func(s *Spec) { s.Horizon.MonitorDays = 0 },
		"no sim days":      func(s *Spec) { s.Horizon.SimDays = 0 },
		"sell-back < 1":    func(s *Spec) { s.Tariff.SellBackW = 0.5 },
		"negative noise":   func(s *Spec) { s.PV.MeasurementNoise = -0.1 },
		"bad attack kind":  func(s *Spec) { s.Attack.Kind = "pulse" },
		"window negative":  func(s *Spec) { s.Attack.From = -1 },
		"window overflow":  func(s *Spec) { s.Attack.To = 24 },
		"delay zero":       func(s *Spec) { s.Attack = Attack{Kind: "delay"} },
		"delay overflow":   func(s *Spec) { s.Attack = Attack{Kind: "delay", Slots: 24} },
		"no magnitude":     func(s *Spec) { s.Attack = Attack{Kind: "false-reading", From: 10, To: 15} },
		"margin >= 1":      func(s *Spec) { s.Attack = Attack{Kind: "adaptive", From: 16, To: 19, Margin: 1} },
		"negative factor":  func(s *Spec) { s.Attack = Attack{Kind: "ramp", From: 12, To: 20, Factor: -0.5} },
		"strike slot big":  func(s *Spec) { s.Campaign.StrikeSlots = []int{2, 24} },
		"strikes unsorted": func(s *Spec) { s.Campaign.StrikeSlots = []int{8, 2} },
		"hack prob zero":   func(s *Spec) { s.Campaign.HackProb = 0 },
		"hack prob > 1":    func(s *Spec) { s.Campaign.HackProb = 1.5 },
		"batch inverted":   func(s *Spec) { s.Campaign.BatchLo = 9; s.Campaign.BatchHi = 3 },
		"tau zero":         func(s *Spec) { s.Detector.FlagTau = 0 },
		"calib frac one":   func(s *Spec) { s.Detector.CalibFrac = 1 },
		"bad solver":       func(s *Spec) { s.Detector.Solver = "lp" },
		"no sweeps":        func(s *Spec) { s.Game.Sweeps = 0 },
		"negative workers": func(s *Spec) { s.Game.Workers = -1 },
		"negative jacobi":  func(s *Spec) { s.Game.JacobiBlock = -1 },
	}
	for name, mutate := range cases {
		spec := Default(100, 1)
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", name)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	spec := Default(100, 1)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a typo'd field, and a nested field the spec no longer has.
	for _, bad := range []string{
		strings.Replace(string(data), `"n":`, `"num_houses": 9, "n":`, 1),
		strings.Replace(string(data), `"game":{`, `"game":{"active_tol":0.01,`, 1),
	} {
		if bad == string(data) {
			t.Fatal("injection did not apply")
		}
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Fatalf("Load accepted an unknown field: %s", bad)
		}
	}
	if _, err := Load(strings.NewReader(string(data))); err != nil {
		t.Fatalf("Load rejected its own output: %v", err)
	}
}

func TestResolvePresetThenFile(t *testing.T) {
	fromPreset, err := Resolve("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if fromPreset.Name != "fig6" {
		t.Fatalf("Resolve(fig6).Name = %q", fromPreset.Name)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "custom.json")
	custom := Default(64, 11)
	custom.Name = "custom"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := custom.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fromFile, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(custom, fromFile) {
		t.Fatalf("Resolve(file) changed the spec:\n want %+v\n got %+v", custom, fromFile)
	}

	if _, err := Resolve(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("Resolve accepted a missing reference")
	}
}

func TestBuildAttackKinds(t *testing.T) {
	for kind, set := range map[string]func(*Spec){
		"zero":          nil,
		"scale":         nil,
		"invert":        nil,
		"none":          nil,
		"ramp":          func(s *Spec) { s.Attack.Factor = 0.3 },
		"delay":         func(s *Spec) { s.Attack = Attack{Kind: "delay", Slots: 3} },
		"load-shift":    func(s *Spec) { s.Attack.Factor = 0.4 },
		"false-reading": func(s *Spec) { s.Attack.MagnitudeKW = 0.8 },
		"adaptive":      func(s *Spec) { s.Attack.Margin = 0.9 },
	} {
		spec := Default(100, 1)
		spec.Attack.Kind = kind
		if set != nil {
			set(&spec)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", kind, err)
		}
		if _, err := spec.BuildAttack(); err != nil {
			t.Errorf("BuildAttack(%q): %v", kind, err)
		}
	}
	spec := Default(100, 1)
	spec.Attack.Kind = "bogus"
	if _, err := spec.BuildAttack(); err == nil {
		t.Error("BuildAttack accepted an unknown kind")
	}
}

func TestValidateAcceptsWrappingWindowAndStrikes(t *testing.T) {
	// From > To is a legal wrap-past-midnight window, not an inversion.
	spec := Default(100, 1)
	spec.Attack = Attack{Kind: "zero", From: 22, To: 2}
	spec.Campaign.StrikeSlots = []int{2, 8, 14, 20}
	if err := spec.Validate(); err != nil {
		t.Fatalf("wrapping window rejected: %v", err)
	}
}

func TestParseAttack(t *testing.T) {
	good := map[string]Attack{
		"none":                   {Kind: "none"},
		"invert":                 {Kind: "invert"},
		"zero":                   {Kind: "zero", From: 16, To: 17},
		"zero:22-2":              {Kind: "zero", From: 22, To: 2},
		"scale:16-19:0.5":        {Kind: "scale", From: 16, To: 19, Factor: 0.5},
		"ramp:12-20:0.3":         {Kind: "ramp", From: 12, To: 20, Factor: 0.3},
		"delay:3":                {Kind: "delay", Slots: 3},
		"delay:-2":               {Kind: "delay", Slots: -2},
		"load-shift:10-14:0.4":   {Kind: "load-shift", From: 10, To: 14, Factor: 0.4},
		"false-reading:10-15:.8": {Kind: "false-reading", From: 10, To: 15, MagnitudeKW: 0.8},
		"adaptive:16-19:0.9":     {Kind: "adaptive", From: 16, To: 19, Margin: 0.9},
	}
	for in, want := range good {
		got, err := ParseAttack(in)
		if err != nil {
			t.Errorf("ParseAttack(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseAttack(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{
		"", "pulse", "invert:1-2", "delay", "delay:x", "zero:16",
		"zero:16-17:0.5", "scale:16-19:x", "false-reading:10-15",
		"scale:1-2:3:4",
	} {
		if _, err := ParseAttack(in); err == nil {
			t.Errorf("ParseAttack(%q) accepted an invalid form", in)
		}
	}
}

func TestParseStrikeSlots(t *testing.T) {
	got, err := ParseStrikeSlots("2, 8,14,20")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 8, 14, 20}) {
		t.Fatalf("ParseStrikeSlots = %v", got)
	}
	if got, err := ParseStrikeSlots(""); err != nil || got != nil {
		t.Fatalf("empty list should be nil, got %v, %v", got, err)
	}
	if _, err := ParseStrikeSlots("2,x"); err == nil {
		t.Fatal("ParseStrikeSlots accepted a non-integer")
	}
}
