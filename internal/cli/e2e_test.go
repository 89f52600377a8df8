// End-to-end tests of the seven command binaries, built once in TestMain:
// each command's flag surface is pinned against a golden parsed from -h,
// invocations that must fail land on the exit-code taxonomy (DESIGN.md §14),
// a panic exits 1, a killed nmdetect run resumes to the uninterrupted output,
// and -dump-scenario output loads back through -scenario unchanged.
package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/core"
	"nmdetect/internal/exitcode"
	"nmdetect/internal/parallel"
	"nmdetect/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the flag-surface goldens from the built binaries")

// commands are the binaries under cmd/, all built into binDir.
var commands = []string{"nmattack", "nmdetect", "nmfleet", "nmrepro", "nmsched", "nmserve", "nmsim"}

var binDir string

// panicEnv, when set, makes the test binary run a panicking body through
// Main instead of the tests (TestPanicExitsOne): "body" panics on the
// calling goroutine, "helper" on a worker-pool helper as well.
const panicEnv = "CLI_TEST_PANIC"

func TestMain(m *testing.M) {
	if where := os.Getenv(panicEnv); where != "" {
		Main("panicker", func(ctx context.Context) error {
			if where == "body" {
				panic("boom")
			}
			// Each item waits until both have started, so the helper
			// surely runs one.
			var started sync.WaitGroup
			started.Add(2)
			return parallel.ForEach(ctx, 2, 2, func(i int) error {
				started.Done()
				started.Wait()
				panic(fmt.Sprintf("boom in item %d", i))
			})
		})
	}
	flag.Parse()
	dir, err := os.MkdirTemp("", "cli-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "nmdetect/cmd/...")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building the commands:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes a built command and returns its exit code, stdout and stderr.
func run(t *testing.T, name string, args ...string) (int, []byte, string) {
	t.Helper()
	return runBin(t, filepath.Join(binDir, name), nil, args...)
}

// runBin is run for the binary at path, with env added to its environment.
func runBin(t *testing.T, path string, env []string, args ...string) (int, []byte, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Env = append(os.Environ(), env...)
	var outb, errb bytes.Buffer
	cmd.Stdout = &outb
	cmd.Stderr = &errb
	err := cmd.Run()
	if err == nil {
		return 0, outb.Bytes(), errb.String()
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", path, args, err)
	}
	return exit.ExitCode(), outb.Bytes(), errb.String()
}

// defaultRe matches the "(default X)" suffix flag.PrintDefaults appends to
// the usage of a flag whose default is not the zero value.
var defaultRe = regexp.MustCompile(`\(default (.*)\)$`)

// flagSurface parses -h output into one "-name type default" line per flag.
// Bool flags print no type word; the zero default prints nothing.
func flagSurface(help string) string {
	var lines []string
	var name, typ, usage string
	flush := func() {
		if name == "" {
			return
		}
		def := ""
		if m := defaultRe.FindStringSubmatch(strings.TrimSpace(usage)); m != nil {
			def = m[1]
		}
		lines = append(lines, strings.TrimSpace(fmt.Sprintf("-%s %s %s", name, typ, def)))
	}
	sc := bufio.NewScanner(strings.NewReader(help))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "  -") {
			usage += " " + strings.TrimSpace(line)
			continue
		}
		flush()
		head, rest, _ := strings.Cut(strings.TrimPrefix(line, "  -"), "\t")
		name, typ, _ = strings.Cut(strings.TrimSpace(head), " ")
		if typ == "" {
			typ = "bool"
		}
		usage = rest
	}
	flush()
	return strings.Join(lines, "\n") + "\n"
}

// TestFlagSurface pins every command's flag names, types and defaults. The
// goldens change only under -update.
func TestFlagSurface(t *testing.T) {
	for _, name := range commands {
		t.Run(name, func(t *testing.T) {
			code, _, help := run(t, name, "-h")
			if code != 0 {
				t.Fatalf("-h exit %d; stderr:\n%s", code, help)
			}
			got := flagSurface(help)
			golden := filepath.Join("testdata", "flags", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("flag surface of %s changed (rerun with -update only on purpose):\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

// writeFile writes body to dir/name and returns the path.
func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the exit code of invocations that must fail. Every
// validation failure (exit 2) happens before the command writes anything to
// stdout, and every validation or resume-incompatible failure (exit 2 or 4)
// before nmdetect starts its system build.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	world := []string{"-n", "6", "-boot", "4", "-days", "1", "-sweeps", "2", "-solver", "qmdp"}
	household := filepath.Join("..", "..", "cmd", "nmsched", "example-spec.json")
	stale := writeFile(t, dir, "stale.ckpt", "x")

	// A monitor checkpoint of the previous format version, header only.
	var older bytes.Buffer
	if err := gob.NewEncoder(&older).Encode(struct {
		Magic   string
		Version int
		Kind    string
	}{"NMCKPT", checkpoint.Version - 1, core.MonitorKind}); err != nil {
		t.Fatal(err)
	}
	olderCkpt := writeFile(t, dir, "older.ckpt", older.String())

	var prices strings.Builder
	for h := 0; h < 24; h++ {
		v := "0.1"
		if h == 5 {
			v = "NaN"
		}
		fmt.Fprintf(&prices, "%d,%s\n", h, v)
	}
	nanPrice := writeFile(t, dir, "nan.csv", prices.String())

	// nmfleet workdirs whose scenario.json belongs to another run: one
	// that differs only in a field the fleet manifest does not pin (the
	// monitored days), one that does not load at all.
	foreign := scenario.Default(6, 1)
	foreign.Fleet = &scenario.Fleet{Communities: 2}
	var spec bytes.Buffer
	if err := foreign.Save(&spec); err != nil {
		t.Fatal(err)
	}
	foreignWD := filepath.Dir(writeFile(t, dir, "foreign/scenario.json", spec.String()))
	garbledWD := filepath.Dir(writeFile(t, dir, "garbled/scenario.json", "{"))
	fleetArgs := []string{"-n", "6", "-seed", "1", "-communities", "2", "-days", "3"}

	cases := []struct {
		name string
		cmd  string
		args []string
		want int
	}{
		{"nmsim bad attack", "nmsim", []string{"-attack", "bogus"}, 2},
		{"nmsim resume without checkpoint", "nmsim", []string{"-n", "6", "-days", "1", "-resume"}, 2},
		{"nmsim fleet with history", "nmsim", []string{"-n", "6", "-days", "1", "-communities", "2", "-history", filepath.Join(dir, "h.csv")}, 2},
		{"nmrepro bad attack", "nmrepro", append(world, "-attack", "bogus"), 2},
		{"nmrepro resume without checkpoint", "nmrepro", append(world, "-experiment", "fig3", "-resume"), 2},
		{"nmrepro unknown experiment", "nmrepro", append(world, "-experiment", "bogus"), 2},
		{"nmrepro report without all", "nmrepro", append(world, "-experiment", "fig3", "-report", filepath.Join(dir, "r.md")), 2},
		{"nmrepro json with fig3", "nmrepro", append(world, "-experiment", "fig3", "-json", filepath.Join(dir, "r.json")), 2},
		{"nmrepro fleet without a fleet", "nmrepro", append(world, "-experiment", "fleet"), 2},
		{"nmdetect unknown detector", "nmdetect", append(world, "-detector", "bogus"), 2},
		{"nmdetect resume without checkpoint", "nmdetect", append(world, "-resume"), 2},
		{"nmdetect existing checkpoint without resume", "nmdetect", append(world, "-checkpoint", stale), 2},
		{"nmdetect resume of an older checkpoint version", "nmdetect", append(world, "-checkpoint", olderCkpt, "-resume"), 4},
		{"nmattack bad attack", "nmattack", []string{"-attack", "bogus"}, 2},
		{"nmattack inverted batch range", "nmattack", []string{"-batchlo", "30", "-batchhi", "5"}, 2},
		{"nmattack event flush fails", "nmattack", []string{"-events", "/dev/full", "-hours", "1"}, 3},
		{"nmsched without spec", "nmsched", nil, 2},
		{"nmsched negative pv-scale", "nmsched", []string{"-spec", household, "-pv-scale", "-1"}, 2},
		{"nmsched NaN pv-scale", "nmsched", []string{"-spec", household, "-pv-scale", "NaN"}, 2},
		{"nmsched Inf pv-scale", "nmsched", []string{"-spec", household, "-pv-scale", "Inf"}, 2},
		{"nmsched NaN price", "nmsched", []string{"-spec", household, "-price", nanPrice}, 2},
		{"nmfleet foreign workdir scenario", "nmfleet", append([]string{"-workdir", foreignWD}, fleetArgs...), 4},
		{"nmfleet unloadable workdir scenario", "nmfleet", append([]string{"-workdir", garbledWD}, fleetArgs...), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if slices.Contains(tc.args, "/dev/full") {
				if _, err := os.Stat("/dev/full"); err != nil {
					t.Skip("/dev/full is not available")
				}
			}
			code, stdout, stderr := run(t, tc.cmd, tc.args...)
			if code != tc.want {
				t.Fatalf("%s %v: exit %d, want %d; stderr:\n%s", tc.cmd, tc.args, code, tc.want, stderr)
			}
			if tc.want == 2 && len(stdout) > 0 {
				t.Fatalf("%s %v: validation failure after writing stdout:\n%s", tc.cmd, tc.args, stdout)
			}
			if (tc.want == 2 || tc.want == 4) && strings.Contains(stderr, "building system") {
				t.Fatalf("%s %v: exit %d reported only after the system build; stderr:\n%s", tc.cmd, tc.args, tc.want, stderr)
			}
		})
	}
}

// TestNmdetectSIGKILLResumeByteIdentical kills a checkpointing nmdetect run
// once its first checkpoint is on disk, resumes it with -resume, and requires
// the per-slot log of an uninterrupted run, byte for byte. The log prints
// each stored day's true hacked counts, so the restored days pass through a
// real save and load.
func TestNmdetectSIGKILLResumeByteIdentical(t *testing.T) {
	world := []string{"-n", "8", "-boot", "4", "-days", "12", "-sweeps", "2", "-solver", "qmdp", "-seed", "7"}
	code, want, stderr := run(t, "nmdetect", world...)
	if code != 0 {
		t.Fatalf("uninterrupted run: exit %d; stderr:\n%s", code, stderr)
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	args := append(slices.Clone(world), "-checkpoint", ckpt, "-checkpoint-every", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, "nmdetect"), args...)
	var killedOut bytes.Buffer
	cmd.Stdout = &killedOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for waiting := true; waiting; {
		select {
		case err := <-done:
			t.Fatalf("nmdetect exited (%v) before its first checkpoint appeared", err)
		case <-tick.C:
			_, err := os.Stat(ckpt)
			waiting = err != nil
		}
	}
	// Kill fails only if the run already finished, which the stdout check
	// below reports.
	_ = cmd.Process.Kill()
	<-done
	if killedOut.Len() > 0 {
		t.Fatalf("the kill landed after the run finished; stdout:\n%s", killedOut.String())
	}

	code, got, stderr := run(t, "nmdetect", append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d; stderr:\n%s", code, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed log differs from the uninterrupted run's:\n%s\nvs\n%s", got, want)
	}
}

// TestPanicExitsOne re-executes the test binary into a panicking Main body
// (see panicEnv). A panic, on the calling goroutine or on a pool helper,
// exits 1 with the value and a goroutine trace on stderr, not with the Go
// runtime's 2, which the supervisor would read as a permanent validation
// failure.
func TestPanicExitsOne(t *testing.T) {
	for _, where := range []string{"body", "helper"} {
		t.Run(where, func(t *testing.T) {
			code, _, stderr := runBin(t, os.Args[0], []string{panicEnv + "=" + where})
			if code != exitcode.Panic {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, exitcode.Panic, stderr)
			}
			if !strings.Contains(stderr, "panicker: panic: boom") || !strings.Contains(stderr, "goroutine ") {
				t.Fatalf("stderr lacks the panic value or a goroutine trace:\n%s", stderr)
			}
		})
	}
}

// TestDumpScenarioRoundTrip pins that a dumped spec, fed back through
// -scenario, dumps to the same bytes and the same content ID.
func TestDumpScenarioRoundTrip(t *testing.T) {
	cases := []struct {
		cmd  string
		args []string
	}{
		{"nmsim", []string{"-n", "12", "-seed", "7", "-days", "3", "-jacobi", "4", "-attack", "scale", "-factor", "0.25"}},
		{"nmrepro", []string{"-n", "12", "-seed", "7", "-days", "3", "-boot", "5", "-shards", "2", "-attack", "delay:3", "-strike-slots", "2,8"}},
		{"nmdetect", []string{"-n", "12", "-seed", "7", "-days", "3", "-jacobi", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.cmd, func(t *testing.T) {
			code, first, firstID := run(t, tc.cmd, append(tc.args, "-dump-scenario")...)
			if code != 0 {
				t.Fatalf("dump exit %d; stderr:\n%s", code, firstID)
			}
			path := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(path, first, 0o644); err != nil {
				t.Fatal(err)
			}
			code, second, secondID := run(t, tc.cmd, "-scenario", path, "-dump-scenario")
			if code != 0 {
				t.Fatalf("re-dump exit %d; stderr:\n%s", code, secondID)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("re-dumped spec differs:\n%s\nvs\n%s", first, second)
			}
			if strings.TrimSpace(firstID) == "" || firstID != secondID {
				t.Fatalf("content ID %q, re-dumped %q", firstID, secondID)
			}
		})
	}
}
