package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nmdetect/internal/exitcode"
	"nmdetect/internal/obs"
	"nmdetect/internal/scenario"
)

// commandLine gives the test a fresh flag.CommandLine, restored afterwards.
func commandLine(t *testing.T) {
	t.Helper()
	saved := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = saved })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
}

// parseWorld registers a World on a fresh command line and parses args.
func parseWorld(t *testing.T, communities int, groups Groups, args ...string) *World {
	t.Helper()
	commandLine(t)
	w := NewWorld(communities, groups)
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	return w
}

const allGroups = Monitor | Game | Attack | Dump

func TestWorldFlagsLandOnSpec(t *testing.T) {
	w := parseWorld(t, 1, allGroups,
		"-n", "12", "-seed", "7", "-sweeps", "5", "-communities", "3",
		"-days", "4", "-boot", "5", "-solver", "qmdp",
		"-workers", "2", "-jacobi", "4", "-shards", "2",
		"-attack", "scale:16-19:0.25", "-strike-slots", "2,8")
	got, err := w.Spec(func(s *scenario.Spec) error {
		s.Horizon.SimDays = 9
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.Default(12, 7)
	want.Game = scenario.Game{Sweeps: 5, Workers: 2, JacobiBlock: 4, Shards: 2}
	want.Fleet = &scenario.Fleet{Communities: 3}
	want.Horizon.MonitorDays, want.Horizon.BootstrapDays, want.Horizon.SimDays = 4, 5, 9
	want.Detector.Solver = "qmdp"
	want.Attack = scenario.Attack{Kind: "scale", From: 16, To: 19, Factor: 0.25}
	want.Campaign.StrikeSlots = []int{2, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered spec\n%+v\nwant\n%+v", got, want)
	}
}

// A group a command does not register leaves its fields at the Default
// spec's values, and -communities 1 adds no fleet block.
func TestUnregisteredGroupsKeepDefaults(t *testing.T) {
	w := parseWorld(t, 1, 0, "-n", "12")
	got, err := w.Spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := scenario.Default(12, 42); !reflect.DeepEqual(got, want) {
		t.Fatalf("lowered spec\n%+v\nwant Default(12, 42)\n%+v", got, want)
	}
	for _, name := range []string{"days", "boot", "solver", "workers", "jacobi", "shards", "attack", "strike-slots", "dump-scenario"} {
		if flag.Lookup(name) != nil {
			t.Errorf("-%s registered without its group", name)
		}
	}
}

func TestCommunitiesDefault(t *testing.T) {
	w := parseWorld(t, 2, 0)
	got, err := w.Spec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.FleetCommunities() != 2 {
		t.Fatalf("fleet width %d, want the registered default 2", got.FleetCommunities())
	}
}

func TestScenarioReplacesFlags(t *testing.T) {
	preset, err := scenario.Preset("fig3")
	if err != nil {
		t.Fatal(err)
	}
	fromFile := scenario.Default(9, 3)
	fromFile.Horizon.MonitorDays = 5
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := WriteFile(path, fromFile.Save); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ref  string
		want scenario.Spec
	}{{"fig3", preset}, {path, fromFile}} {
		w := parseWorld(t, 1, allGroups, "-n", "12", "-sweeps", "5", "-shards", "2", "-attack", "invert", "-scenario", tc.ref)
		got, err := w.Spec(func(s *scenario.Spec) error {
			s.Horizon.SimDays = 1
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("-scenario %s: got\n%+v\nwant\n%+v", tc.ref, got, tc.want)
		}
	}
}

// capture redirects os.Stdout and os.Stderr into files for the duration of
// fn and returns what was written to each.
func capture(t *testing.T, fn func()) (stdout, stderr []byte) {
	t.Helper()
	dir := t.TempDir()
	saved := [2]*os.File{os.Stdout, os.Stderr}
	files := [2]*os.File{}
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	os.Stdout, os.Stderr = files[0], files[1]
	fn()
	os.Stdout, os.Stderr = saved[0], saved[1]
	var out [2][]byte
	for i, f := range files {
		f.Close()
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out[0], out[1]
}

func TestDumpScenario(t *testing.T) {
	w := parseWorld(t, 1, allGroups, "-n", "12", "-seed", "7", "-jacobi", "4", "-dump-scenario")
	var spec scenario.Spec
	var err error
	stdout, stderr := capture(t, func() { spec, err = w.Spec(nil) })
	if !errors.Is(err, ErrDumped) {
		t.Fatalf("Spec with -dump-scenario returned %v, want ErrDumped", err)
	}
	var want bytes.Buffer
	if err := spec.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout, want.Bytes()) {
		t.Fatalf("dumped\n%s\nwant\n%s", stdout, want.Bytes())
	}
	loaded, err := scenario.Load(bytes.NewReader(stdout))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, spec) {
		t.Fatalf("dump loads back as\n%+v\nwant\n%+v", loaded, spec)
	}
	if got := strings.TrimSpace(string(stderr)); got != spec.ID() {
		t.Fatalf("stderr %q, want the content ID %s", got, spec.ID())
	}
}

func TestLoweringErrorsExitTwo(t *testing.T) {
	unknownField := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(unknownField, []byte(`{"n": 12, "sede": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badExtra := func(*scenario.Spec) error { return errors.New("bad command flag") }
	cases := []struct {
		name  string
		args  []string
		extra func(*scenario.Spec) error
	}{
		{"bad attack", []string{"-attack", "bogus"}, nil},
		{"bad strike slots", []string{"-strike-slots", "2,x"}, nil},
		{"invalid value", []string{"-n", "0"}, nil},
		{"invalid solver", []string{"-solver", "bogus"}, nil},
		{"unknown preset", []string{"-scenario", "bogus"}, nil},
		{"missing scenario file", []string{"-scenario", filepath.Join(t.TempDir(), "missing.json")}, nil},
		{"unknown scenario field", []string{"-scenario", unknownField}, nil},
		{"command flag", nil, badExtra},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := parseWorld(t, 1, allGroups, tc.args...)
			_, err := w.Spec(tc.extra)
			if err == nil {
				t.Fatal("lowering succeeded")
			}
			if code := exitcode.For(err); code != exitcode.Validation {
				t.Fatalf("%v: exit %d, want %d", err, code, exitcode.Validation)
			}
		})
	}
}

func TestCheckpointFlagsAndGuard(t *testing.T) {
	commandLine(t)
	existing := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(existing, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCheckpoint()
	if err := flag.CommandLine.Parse([]string{"-checkpoint", existing, "-resume"}); err != nil {
		t.Fatal(err)
	}
	if c.Path != existing || !c.Resume {
		t.Fatalf("parsed %+v", c)
	}
	if err := c.Guard(); err != nil {
		t.Fatalf("resuming an existing checkpoint: %v", err)
	}

	missing := filepath.Join(t.TempDir(), "missing.ckpt")
	cases := []struct {
		path   string
		resume bool
		want   int
	}{
		{"", false, exitcode.OK},
		{"", true, exitcode.Validation},
		{missing, false, exitcode.OK},
		{missing, true, exitcode.OK},
		{existing, false, exitcode.Validation},
		{existing, true, exitcode.OK},
	}
	for _, tc := range cases {
		err := GuardResume("-checkpoint", tc.path, tc.path, tc.resume)
		if got := exitcode.For(err); got != tc.want {
			t.Errorf("GuardResume(%q, resume=%v) = %v (exit %d), want exit %d", tc.path, tc.resume, err, got, tc.want)
		}
	}
}

func TestCheckDetector(t *testing.T) {
	for name, want := range map[string]int{"aware": exitcode.OK, "blind": exitcode.OK, "bogus": exitcode.Validation, "": exitcode.Validation} {
		if got := exitcode.For(CheckDetector(name)); got != want {
			t.Errorf("CheckDetector(%q): exit %d, want %d", name, got, want)
		}
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "hello\n" {
		t.Fatalf("read back %q, %v", b, err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("render error: got %v", err)
	}
	if err := WriteFile(filepath.Join(dir, "missing", "out.txt"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("creating a file in a missing directory succeeded")
	}
}

func TestObsStart(t *testing.T) {
	commandLine(t)
	events := filepath.Join(t.TempDir(), "run.jsonl")
	o := NewObs(false)
	if flag.Lookup("pprof") != nil {
		t.Fatal("-pprof registered without profiling")
	}
	if err := flag.CommandLine.Parse([]string{"-events", events}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(obs.RunConfig{Cmd: "cli-test", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Shutdown(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"cmd":"cli-test"`) {
		t.Fatalf("event stream holds no manifest for the run:\n%s", b)
	}
}

func TestInvalid(t *testing.T) {
	err := Invalidf("bad %s: %w", "flag", os.ErrNotExist)
	if exitcode.For(err) != exitcode.Validation || !errors.Is(err, os.ErrNotExist) || err.Error() != "bad flag: "+os.ErrNotExist.Error() {
		t.Fatalf("Invalidf = %v (exit %d)", err, exitcode.For(err))
	}
	if Invalid(nil) != nil {
		t.Fatal("Invalid(nil) is not nil")
	}
}
