// End-to-end tests of the nmdetect binary: bad invocations exit with the
// validation code before the expensive system build, and -dump-scenario
// output loads back through -scenario unchanged.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var nmdetectBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nmdetect-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nmdetectBin = filepath.Join(dir, "nmdetect")
	cmd := exec.Command("go", "build", "-o", nmdetectBin, ".")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building nmdetect:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes nmdetect and returns its exit code, stdout and stderr.
func run(t *testing.T, args ...string) (int, []byte, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, nmdetectBin, args...)
	var outb, errb bytes.Buffer
	cmd.Stdout = &outb
	cmd.Stderr = &errb
	err := cmd.Run()
	if err == nil {
		return 0, outb.Bytes(), errb.String()
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("nmdetect %v: %v", args, err)
	}
	return exit.ExitCode(), outb.Bytes(), errb.String()
}

// TestBadFlagsFailBeforeBuild pins that flag errors which need no system
// exit 2 without starting the bootstrap/training/calibration build.
func TestBadFlagsFailBeforeBuild(t *testing.T) {
	stale := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(stale, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	world := []string{"-n", "6", "-boot", "4", "-days", "1", "-sweeps", "2", "-solver", "qmdp"}
	cases := []struct {
		name string
		args []string
	}{
		{"unknown detector", []string{"-detector", "bogus"}},
		{"resume without checkpoint", []string{"-resume"}},
		{"existing checkpoint without resume", []string{"-checkpoint", stale}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := run(t, append(world, tc.args...)...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
			}
			if strings.Contains(stderr, "building system") {
				t.Fatalf("flag error reported only after the system build; stderr:\n%s", stderr)
			}
		})
	}
}

// TestDumpScenarioRoundTrip pins that a dumped spec, fed back through
// -scenario, dumps to the same bytes and the same content ID.
func TestDumpScenarioRoundTrip(t *testing.T) {
	code, first, firstID := run(t, "-n", "12", "-seed", "7", "-days", "3", "-jacobi", "4", "-dump-scenario")
	if code != 0 {
		t.Fatalf("dump exit %d; stderr:\n%s", code, firstID)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	code, second, secondID := run(t, "-scenario", path, "-dump-scenario")
	if code != 0 {
		t.Fatalf("re-dump exit %d; stderr:\n%s", code, secondID)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-dumped spec differs:\n%s\nvs\n%s", first, second)
	}
	if strings.TrimSpace(firstID) == "" || firstID != secondID {
		t.Fatalf("content ID %q, re-dumped %q", firstID, secondID)
	}
}
