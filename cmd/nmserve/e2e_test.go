// End-to-end daemon tests: these build the real nmserve binary and pin the
// durability and exit-code contracts at the process level — a SIGKILLed
// daemon restarted over the same state directory serves records
// byte-identical to a batch run, SIGTERM drains and checkpoints before
// exiting 0, and failures land on the internal/exitcode taxonomy.
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/scenario"
)

var nmserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nmserve-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nmserveBin = filepath.Join(dir, "nmserve")
	cmd := exec.Command("go", "build", "-o", nmserveBin, ".")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building nmserve:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// e2eSpec is the tiny-but-multi-day scenario shared with the fleet e2e
// suite: 6 meters, 3 monitored days, qmdp solver.
func e2eSpec(t *testing.T) scenario.Spec {
	t.Helper()
	spec := scenario.Default(6, 12345)
	spec.Horizon.BootstrapDays = 4
	spec.Horizon.MonitorDays = 3
	spec.Game.Sweeps = 2
	spec.Detector.Solver = "qmdp"
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// daemon is one running nmserve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://addr
	errb   *bytes.Buffer
	exited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result; read it after exited is closed
}

// startDaemon launches nmserve over state and waits for it to publish its
// bound address. extra appends flags (e.g. -checkpoint-every). The daemon is
// killed when the test ends, so a failing test leaves no process behind.
func startDaemon(t *testing.T, state string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "bound.addr")
	args := append([]string{"-state", state, "-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	d := &daemon{cmd: exec.Command(nmserveBin, args...), errb: new(bytes.Buffer), exited: make(chan struct{})}
	d.cmd.Stderr = d.errb
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(d.kill)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil {
			d.base = "http://" + strings.TrimSpace(string(raw))
			return d
		}
		select {
		case <-d.exited:
			t.Fatalf("nmserve exited before binding: %v; stderr:\n%s", d.err, d.errb.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			t.Fatalf("nmserve did not come up; stderr:\n%s", d.errb.String())
		}
	}
}

// kill SIGKILLs the daemon and waits until it is reaped. It is a no-op on a
// daemon that has already exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck
	<-d.exited
}

// sigterm sends SIGTERM and waits for a clean exit 0.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			t.Fatalf("nmserve exit after SIGTERM: %v; stderr:\n%s", d.err, d.errb.String())
		}
	case <-time.After(30 * time.Second):
		d.kill()
		t.Fatalf("nmserve did not exit within 30s of SIGTERM; stderr:\n%s", d.errb.String())
	}
}

func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func createSession(t *testing.T, base string, spec scenario.Spec, id string, wantCode int) {
	t.Helper()
	resp, raw := do(t, "POST", base+"/v1/sessions",
		map[string]any{"id": id, "scenario": spec, "scenario_id": spec.ID()})
	if resp.StatusCode != wantCode {
		t.Fatalf("create session: %d %s, want %d", resp.StatusCode, raw, wantCode)
	}
}

func postDay(t *testing.T, base, id string, day int) {
	t.Helper()
	resp, raw := do(t, "POST", base+"/v1/sessions/"+id+"/days", map[string]int{"day": day})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post day %d: %d %s", day, resp.StatusCode, raw)
	}
}

func completedDays(t *testing.T, base, id string) int {
	t.Helper()
	resp, raw := do(t, "GET", base+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: %d %s", resp.StatusCode, raw)
	}
	var st struct {
		Completed int `json:"completed"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st.Completed
}

// fetchGob retrieves the session's records and canonicalizes the gob
// stream by decoding and re-encoding it in this process. gob type IDs come
// from a process-global registry, so a daemon that also gob-encodes
// checkpoints emits different IDs in its stream than a fresh test process
// would — while carrying identical values. The decode/re-encode round trip
// normalizes the IDs and preserves every payload bit (gob floats are exact),
// so the byte comparison against the batch encoding still pins the full
// record contents. The in-package serve tests compare the raw stream, where
// both sides share one process.
func fetchGob(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, raw := do(t, "GET", base+"/v1/sessions/"+id+"/records?format=gob", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch records: %d %s", resp.StatusCode, raw)
	}
	var results []*community.MonitorDayResult
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&results); err != nil {
		t.Fatalf("decode served records: %v", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchGob is the uninterrupted in-process reference: the nmdetect batch
// pipeline on the same spec, gob-encoded.
func batchGob(t *testing.T, spec scenario.Spec) []byte {
	t.Helper()
	opts, err := spec.CoreOptions()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.MonitorDays(context.Background(), sys.Aware, camp, spec.Horizon.MonitorDays, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSIGKILLRestartByteIdentical is the acceptance criterion: serve a day,
// SIGKILL the daemon (no drain, no final checkpoint), restart it over the
// same state, finish the horizon, and the full record stream is
// gob-byte-identical to a batch run. -checkpoint-every 1 makes every
// acknowledged day durable, which is exactly what the contract promises.
func TestSIGKILLRestartByteIdentical(t *testing.T) {
	spec := e2eSpec(t)
	state := t.TempDir()

	d1 := startDaemon(t, state, "-checkpoint-every", "1")
	createSession(t, d1.base, spec, "kill-me", http.StatusCreated)
	postDay(t, d1.base, "kill-me", 0)
	d1.kill()

	d2 := startDaemon(t, state)
	if got := completedDays(t, d2.base, "kill-me"); got != 1 {
		t.Fatalf("restarted daemon reports %d completed days, want 1", got)
	}
	for day := 1; day < spec.Horizon.MonitorDays; day++ {
		postDay(t, d2.base, "kill-me", day)
	}
	if got, want := fetchGob(t, d2.base, "kill-me"), batchGob(t, spec); !bytes.Equal(got, want) {
		t.Fatal("records after SIGKILL+restart differ from uninterrupted batch run")
	}
}

// TestSIGTERMDrainsAndCheckpoints pins the graceful path: with a checkpoint
// cadence too sparse to have saved anything, the day served before SIGTERM
// is durable only because shutdown checkpoints every session — and the
// daemon exits 0.
func TestSIGTERMDrainsAndCheckpoints(t *testing.T) {
	spec := e2eSpec(t)
	state := t.TempDir()

	d1 := startDaemon(t, state, "-checkpoint-every", "100")
	createSession(t, d1.base, spec, "term-me", http.StatusCreated)
	postDay(t, d1.base, "term-me", 0)
	d1.sigterm(t)
	if !strings.Contains(d1.errb.String(), "all sessions checkpointed") {
		t.Fatalf("shutdown log missing checkpoint line:\n%s", d1.errb.String())
	}

	d2 := startDaemon(t, state)
	if got := completedDays(t, d2.base, "term-me"); got != 1 {
		t.Fatalf("resumed daemon reports %d completed days, want 1 (SIGTERM checkpoint lost?)", got)
	}
	for day := 1; day < spec.Horizon.MonitorDays; day++ {
		postDay(t, d2.base, "term-me", day)
	}
	if got, want := fetchGob(t, d2.base, "term-me"), batchGob(t, spec); !bytes.Equal(got, want) {
		t.Fatal("records after SIGTERM+restart differ from uninterrupted batch run")
	}
}

// exitCode runs nmserve with args and returns its exit code (waiting at
// most 30s — these are all immediate-failure paths).
func exitCode(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, nmserveBin, args...)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	if err == nil {
		return 0, errb.String()
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("nmserve %v: %v", args, err)
	}
	return exit.ExitCode(), errb.String()
}

// TestExitCodes is the taxonomy table: bind/validation failures exit 2,
// runtime failures 3, resume-incompatible state 4 — so a future multi-host
// supervisor can classify nmserve like any worker.
func TestExitCodes(t *testing.T) {
	spec := e2eSpec(t)

	// A state dir whose session.json was edited after the fact (content
	// hash no longer matches).
	tampered := t.TempDir()
	d := startDaemon(t, tampered, "-checkpoint-every", "1")
	createSession(t, d.base, spec, "tamper", http.StatusCreated)
	postDay(t, d.base, "tamper", 0)
	d.sigterm(t)
	sfPath := filepath.Join(tampered, "sessions", "tamper", "session.json")
	raw, err := os.ReadFile(sfPath)
	if err != nil {
		t.Fatal(err)
	}
	var sf map[string]any
	if err := json.Unmarshal(raw, &sf); err != nil {
		t.Fatal(err)
	}
	sf["scenario"].(map[string]any)["seed"] = float64(spec.Seed + 1)
	edited, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sfPath, edited, 0o644); err != nil {
		t.Fatal(err)
	}

	// A state dir whose checkpoint is garbage (foreign format).
	garbage := t.TempDir()
	d2 := startDaemon(t, garbage, "-checkpoint-every", "1")
	createSession(t, d2.base, spec, "garbage", http.StatusCreated)
	postDay(t, d2.base, "garbage", 0)
	d2.sigterm(t)
	if err := os.WriteFile(filepath.Join(garbage, "sessions", "garbage", "run.ckpt"),
		[]byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A -state path that is a regular file, not a directory.
	blocked := filepath.Join(t.TempDir(), "state-is-a-file")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"missing -state", []string{"-addr", "127.0.0.1:0"}, 2},
		{"unusable bind address", []string{"-state", t.TempDir(), "-addr", "256.256.256.256:1"}, 2},
		{"state path is a file", []string{"-state", blocked, "-addr", "127.0.0.1:0"}, 3},
		{"tampered session file", []string{"-state", tampered, "-addr", "127.0.0.1:0"}, 4},
		{"garbage checkpoint", []string{"-state", garbage, "-addr", "127.0.0.1:0"}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := exitCode(t, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.want, stderr)
			}
		})
	}
}
