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
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nmdetect/benchmark/fold"
	"nmdetect/internal/community"
	"nmdetect/internal/core"
	"nmdetect/internal/rng"
	"nmdetect/internal/scenario"
)

// Serve workload shape. Load comes from this one process over at most
// serveConns HTTP connections (the host's core count is the budget); each
// connection owns a fixed subset of the sessions, so every session's days
// arrive in order.
const (
	serveSessions  = 16
	serveConns     = 2
	serveSetupReps = 3
	// serveRefRate is the reference offered rate in day POSTs per second,
	// about half of what the seed's daemon sustains on two cores. The
	// reference phase takes serveRefShare of the measured seconds (at 15s
	// or more, over 100 POSTs: ten samples beyond the p90); the closed-loop
	// capacity phase gets the rest.
	serveRefRate  = 16.0
	serveRefShare = 0.55
	// serveReadEvery is the default of -read-every: one GET .../records read
	// after every this many day POSTs, that is each session's history read
	// about once per 16 of its days. No client pattern fixes this ratio; it
	// is an assumption, and README.md shows how the serve metrics respond
	// to it.
	serveReadEvery = 16
	serveRTTProbes = 50
)

// serveSpec is session i's scenario: the serve-smoke world with its own
// seed and a horizon the run never exhausts.
func serveSpec(i int) (scenario.Spec, error) {
	spec, err := scenario.Preset("serve-smoke")
	if err != nil {
		return scenario.Spec{}, err
	}
	spec.Seed = deriveSeed(worldSeed, fmt.Sprintf("serve-session-%d", i))
	spec.Horizon.MonitorDays = 1 << 20
	return spec, nil
}

func sessionID(i int) string { return fmt.Sprintf("bench-%02d", i) }

// daemon is one nmserve process over loopback.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	base    string
	started time.Time
	exited  chan error
	done    bool // stopped or killed, and waited for
}

func startDaemon(ctx context.Context, bin, dir string, traced bool) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	// A restart on the same directory must not read the last daemon's address.
	if err := os.Remove(filepath.Join(dir, "addr")); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	args := []string{"-state", filepath.Join(dir, "state"), "-addr", "127.0.0.1:0",
		"-addr-file", filepath.Join(dir, "addr"), "-checkpoint-every", "1"}
	if traced {
		args = append(args, "-events", filepath.Join(dir, "events.jsonl"),
			"-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-memprofile", filepath.Join(dir, "mem.pprof"))
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(abs, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the driver, even if the driver is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, dir: dir, started: time.Now(), exited: make(chan error, 1)}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start nmserve: %w", err)
	}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(filepath.Join(dir, "addr"))
		if err == nil {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case err := <-d.exited:
			d.done = true
			return nil, fmt.Errorf("nmserve exited before listening: %v (see %s)", err, logf.Name())
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("nmserve did not write its address within 30s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal nmserve: %w", err)
	}
	select {
	case err := <-d.exited:
		d.done = true
		if err != nil {
			return fmt.Errorf("nmserve exit: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("nmserve did not exit within 60s of SIGTERM")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.exited
	d.done = true
}

// cpuSeconds reads the daemon's user+system CPU time (clock ticks of
// 1/100 s) from /proc.
func (d *daemon) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (u + st) / 100
}

// client is the load generator's HTTP side.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// do sends one request and returns the body of a 2xx reply.
func (c *client) do(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// setupDaemon starts a daemon and creates every session over serveConns
// connections; it returns the daemon and the time from start until the last
// session was created.
func setupDaemon(ctx context.Context, o options, dir string, traced bool, sessions int) (*daemon, *client, time.Duration, error) {
	d, err := startDaemon(ctx, o.nmserve, dir, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.base)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < sessions; i += serveConns {
				spec, err := serveSpec(i)
				if err == nil {
					_, err = c.do("POST", "/v1/sessions", map[string]any{"id": sessionID(i), "scenario": spec})
				}
				errs[i] = err
			}
		}(w)
	}
	wg.Wait()
	took := time.Since(d.started)
	if err := errors.Join(errs...); err != nil {
		d.kill()
		return nil, nil, 0, fmt.Errorf("create sessions: %w", err)
	}
	return d, c, took, nil
}

// restartDaemon starts a daemon on an existing state directory; it restores
// every session before it listens.
func restartDaemon(ctx context.Context, o options, dir string) (*daemon, *client, error) {
	d, err := startDaemon(ctx, o.nmserve, dir, false)
	if err != nil {
		return nil, nil, err
	}
	return d, newClient(d.base), nil
}

// op is one scheduled request: a day POST, or a records read when day < 0.
type op struct {
	due     time.Time
	session int
	day     int
}

// opResult is one completed request: latency from its due time, the
// response size, and any error.
type opResult struct {
	op
	lat   time.Duration
	bytes int
	err   error
}

// send issues one request and times it from its due time.
func send(c *client, o op) opResult {
	r := opResult{op: o}
	var body []byte
	if o.day >= 0 {
		body, r.err = c.do("POST", "/v1/sessions/"+sessionID(o.session)+"/days", map[string]int{"day": o.day})
	} else {
		body, r.err = c.do("GET", "/v1/sessions/"+sessionID(o.session)+"/records", nil)
	}
	r.lat, r.bytes = time.Since(o.due), len(body)
	return r
}

// phaseStats is the outcome of one load phase.
type phaseStats struct {
	dur      time.Duration // from the phase's start to its last completion
	posts    []opResult
	reads    []opResult
	lateness []float64 // open loop: ms the generator sent after each due time
}

func (ps *phaseStats) add(rs []opResult) {
	for _, r := range rs {
		if r.day >= 0 {
			ps.posts = append(ps.posts, r)
		} else {
			ps.reads = append(ps.reads, r)
		}
	}
}

func (ps *phaseStats) postLatMs() []float64 {
	out := make([]float64, 0, len(ps.posts))
	for _, r := range ps.posts {
		lat := ms(r.lat)
		if r.err != nil {
			lat = 1e12 // a failed request misses any latency limit
		}
		out = append(out, lat)
	}
	return out
}

// postRate is the phase's completed day POSTs per second.
func (ps *phaseStats) postRate() float64 {
	n := 0
	for _, r := range ps.posts {
		if r.err == nil {
			n++
		}
	}
	return ratio(float64(n), ps.dur.Seconds())
}

func (ps *phaseStats) String() string {
	lat := ps.postLatMs()
	return fmt.Sprintf("%d POSTs and %d reads in %.2fs (%.1f POST/s), p50 %.2f ms, p90 %.2f ms",
		len(ps.posts), len(ps.reads), ps.dur.Seconds(), ps.postRate(), quantile(lat, 0.5), quantile(lat, 0.9))
}

// account counts a phase's requests as attempted and its errors as failed.
func (p *pass) account(ps *phaseStats) {
	for _, r := range append(ps.posts, ps.reads...) {
		p.attempted++
		if r.err != nil {
			p.fail("%v", r.err)
		}
	}
}

// runPhase offers day POSTs at rate per second for dur, open loop: the
// generator enqueues each request at its due time whatever the state of
// earlier ones, and latency is timed from the due time. A records read
// follows every readEvery POSTs (none when 0). next holds each session's
// next day and is advanced; src picks the session visiting order, one
// seeded permutation per round of sessions.
func runPhase(c *client, rate float64, dur time.Duration, next []int, src *rng.Source, readEvery int) *phaseStats {
	n := len(next)
	total := int(rate * dur.Seconds())
	// Each worker queue can hold the whole phase, so the generator never
	// blocks on a slow daemon.
	queues := make([]chan op, serveConns)
	for w := range queues {
		queues[w] = make(chan op, 2*total+1)
	}
	results := make([][]opResult, serveConns)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := range queues[w] {
				results[w] = append(results[w], send(c, o))
			}
		}(w)
	}

	ps := &phaseStats{}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	var perm []int
	for k := 0; k < total; k++ {
		if k%n == 0 {
			perm = src.Perm(n)
		}
		due := t0.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		s := perm[k%n]
		ops := []op{{due: due, session: s, day: next[s]}}
		next[s]++
		if readEvery > 0 && (k+1)%readEvery == 0 {
			ops = append(ops, op{due: due, session: perm[(k+1)%n], day: -1})
		}
		for _, o := range ops {
			queues[o.session%serveConns] <- o
		}
		ps.lateness = append(ps.lateness, ms(time.Since(due)))
	}
	time.Sleep(time.Until(t0.Add(dur)))
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	ps.dur = time.Since(t0)
	for _, rs := range results {
		ps.add(rs)
	}
	return ps
}

// runClosedLoop measures the daemon's capacity: each of serveConns workers
// owns the sessions of its connection and sends its next day POST as soon as
// the last one returns, until end and at least once per session. A records
// read follows every readEvery of a worker's POSTs, the reference phase's
// mix. next is advanced as in runPhase.
func runClosedLoop(c *client, end time.Time, next []int, seed uint64, readEvery int) *phaseStats {
	results := make([][]opResult, serveConns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for s := w; s < len(next); s += serveConns {
				mine = append(mine, s)
			}
			src := rng.New(deriveSeed(seed, fmt.Sprintf("serve-closed-loop-%d", w)))
			var perm []int
			for k := 0; k < len(mine) || time.Now().Before(end); k++ {
				if k%len(mine) == 0 {
					perm = src.Perm(len(mine))
				}
				s := mine[perm[k%len(mine)]]
				results[w] = append(results[w], send(c, op{due: time.Now(), session: s, day: next[s]}))
				next[s]++
				if readEvery > 0 && (k+1)%readEvery == 0 {
					results[w] = append(results[w], send(c, op{due: time.Now(), session: mine[perm[(k+1)%len(mine)]], day: -1}))
				}
			}
		}(w)
	}
	wg.Wait()
	ps := &phaseStats{dur: time.Since(t0)}
	for _, rs := range results {
		ps.add(rs)
	}
	return ps
}

// runServe drives the real nmserve daemon: serveSetupReps daemon starts
// (setup_s is their median), then on the last one an open-loop phase at the
// reference rate and a closed-loop capacity phase, then the correctness gate
// against an in-process replay.
//
// A traced pass stops its daemon after the reference phase instead, because
// the daemon writes its event stream and profiles when it exits: its
// per-layer figures then cover set-up and a phase whose day count the
// schedule fixes, whatever the daemon's speed. A daemon restarted on the
// same state serves the HTTP floor probes and the gate.
func runServe(ctx context.Context, o options, traced bool) (*pass, error) {
	spec0, err := serveSpec(0)
	if err != nil {
		return nil, err
	}
	meters := spec0.N
	sessions := serveSessions
	if o.toy {
		sessions = 2
	}
	p := newPass()
	var (
		setups     []float64
		d          *daemon
		c          *client
		setupEv    *events
		setupAlloc int64
	)
	p0 := probe()
	for rep := 0; rep < serveSetupReps; rep++ {
		dir := filepath.Join(o.workdir, fmt.Sprintf("daemon-%d", rep))
		var took time.Duration
		var err error
		d, c, took, err = setupDaemon(ctx, o, dir, traced, sessions)
		if err != nil {
			return nil, err
		}
		p.attempted += int64(sessions)
		setups = append(setups, took.Seconds())
		if rep == serveSetupReps-1 {
			break
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		if traced && rep == 0 {
			// The first daemon did nothing but set up, so its event stream
			// and allocations are the setup share of the measured daemon's
			// (setup is deterministic).
			if setupEv, setupAlloc, err = readDaemonTrace(dir); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if !d.done {
			d.kill()
		}
	}()
	setupCPU := d.cpuSeconds()
	setupWall := time.Since(d.started)

	p1 := probe()
	next := make([]int, sessions)
	loadStart, loadCPU := time.Now(), d.cpuSeconds()
	refDur := time.Duration(serveRefShare * float64(o.seconds))
	ref := runPhase(c, serveRefRate, refDur, next, rng.New(deriveSeed(o.seed, "serve-schedule")), o.readEvery)
	p.account(ref)
	fmt.Printf("serve: reference phase at %.0f POST/s: %s\n", serveRefRate, ref)
	var capacity *phaseStats
	if !traced {
		capacity = runClosedLoop(c, loadStart.Add(o.seconds), next, o.seed, o.readEvery)
		p.account(capacity)
		fmt.Printf("serve: closed-loop phase over %d connections: %s\n", serveConns, capacity)
	}
	loadWall, loadCPUSec := time.Since(loadStart), d.cpuSeconds()-loadCPU
	setupSpeed, loadSpeed := speed{p0, p1}, speed{p1, probe()}
	fmt.Printf("serve: checkpoint bytes: %s\n", checkpointSizes(d, next))
	if traced {
		if err := d.stop(); err != nil {
			return nil, err
		}
		if err := serveLayers(p, d, setupEv, setupAlloc, ref, meters, next, setupCPU, setupWall, loadCPUSec, loadWall); err != nil {
			return nil, err
		}
		d2, c2, err := restartDaemon(ctx, o, d.dir)
		if err != nil {
			return nil, err
		}
		d, c = d2, c2
		var rtt []float64
		for i := 0; i < serveRTTProbes; i++ {
			t0 := time.Now()
			p.attempted++
			if _, err := c.do("GET", "/v1/sessions/"+sessionID(i%sessions), nil); err != nil {
				p.fail("status probe: %v", err)
			}
			rtt = append(rtt, ms(time.Since(t0)))
		}
		p.layers["serve.http_rtt_ms"] = quantile(rtt, 0.5)
	}

	// Correctness gate: every session's served records decode, and session
	// 0's are gob-identical to an in-process replay of its spec.
	served := make([][]*community.MonitorDayResult, sessions)
	for i := 0; i < sessions; i++ {
		p.attempted++
		body, err := c.do("GET", "/v1/sessions/"+sessionID(i)+"/records?format=gob", nil)
		if err == nil {
			err = gob.NewDecoder(bytes.NewReader(body)).Decode(&served[i])
		}
		if err != nil {
			p.fail("records of session %d: %v", i, err)
			continue
		}
		if len(served[i]) != next[i] {
			p.fail("session %d served %d days, %d were posted", i, len(served[i]), next[i])
		}
	}
	// The peak RSS of the daemon that served the load (a traced pass
	// reports no end-to-end figures but day_p50_ms and setup_s).
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		p.fail("daemon shutdown: %v", err)
	}
	p.attempted++
	replayBytes, err := replay(ctx, spec0, len(served[0]))
	if err != nil {
		return nil, err
	}
	var canon bytes.Buffer
	if err := gob.NewEncoder(&canon).Encode(served[0]); err != nil {
		return nil, err
	}
	if !bytes.Equal(canon.Bytes(), replayBytes) {
		p.fail("session 0: served records differ from the in-process replay (%d vs %d bytes)", canon.Len(), len(replayBytes))
	}

	// detect_accuracy over the reference phase's days, which the schedule
	// fixes, averaged over the sessions.
	refDays := len(ref.posts) / sessions
	var accs []float64
	for _, rs := range served {
		if len(rs) >= refDays && refDays > 0 {
			accs = append(accs, core.ObservationAccuracy(rs[:refDays]))
		}
	}
	lat := ref.postLatMs()
	fmt.Printf("serve: %d sessions, setups %v s; setup %v; load %v\n", sessions, setups, setupSpeed, loadSpeed)

	p.e2e["setup_s"] = setupSpeed.times(quantile(setups, 0.5))
	p.e2e["day_p50_ms"] = loadSpeed.times(quantile(lat, 0.50))
	p.e2e["day_p90_ms"] = loadSpeed.times(quantile(lat, 0.90))
	p.e2e["max_rss_mb"] = rss
	p.e2e["detect_accuracy"] = mean(accs)
	if capacity != nil {
		p.e2e["meter_days_per_s"] = loadSpeed.rate(capacity.postRate() * float64(meters))
		p.e2e["max_readings_per_s"] = 24 * p.e2e["meter_days_per_s"]
	}
	return p, nil
}

// replay runs a session's spec in process for days days, untimed, and
// returns its per-day records gob-encoded.
func replay(ctx context.Context, spec scenario.Spec, days int) ([]byte, error) {
	opts, err := spec.CoreOptions()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		return nil, err
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		return nil, err
	}
	r, err := sys.NewRunner(sys.Aware, camp, true, "", 1)
	if err != nil {
		return nil, err
	}
	for d := 0; d < days; d++ {
		if err := r.StepDay(ctx); err != nil {
			return nil, fmt.Errorf("replay day %d: %w", d, err)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.Results()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ckptSize is session i's run.ckpt size in bytes, or -1.
func ckptSize(d *daemon, i int) int64 {
	fi, err := os.Stat(filepath.Join(d.dir, "state", "sessions", sessionID(i), "run.ckpt"))
	if err != nil {
		return -1
	}
	return fi.Size()
}

// checkpointSizes lists each session's days and run.ckpt size.
func checkpointSizes(d *daemon, next []int) string {
	var parts []string
	for i, n := range next {
		parts = append(parts, fmt.Sprintf("%d days=%d B", n, ckptSize(d, i)))
	}
	return strings.Join(parts, ", ")
}

// readDaemonTrace reads a stopped traced daemon's event stream and the total
// bytes its heap profile says it allocated.
func readDaemonTrace(dir string) (*events, int64, error) {
	f, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	ev, err := parseEvents(f)
	if err != nil {
		return nil, 0, err
	}
	mem, err := readProfile(filepath.Join(dir, "mem.pprof"))
	if err != nil {
		return nil, 0, err
	}
	return ev, mem.Total("alloc_space"), nil
}

// serveLayers fills the per-layer metrics of a traced serve pass from the
// daemon stopped after the reference phase: its event stream and profiles
// less those of a daemon that only set up, and the benchmark's spans.
func serveLayers(p *pass, d *daemon, setupEv *events, setupAlloc int64, ref *phaseStats, meters int, next []int,
	setupCPU float64, setupWall time.Duration, loadCPU float64, loadWall time.Duration) error {
	l := p.layers
	full, alloc, err := readDaemonTrace(d.dir)
	if err != nil {
		return err
	}
	if setupEv == nil {
		setupEv, setupAlloc = full, 0
	}
	// The reference phase's requests and checkpoint saves (the drain's final
	// saves stand in for the setup daemon's).
	mon := full.minus(setupEv)
	cpu, err := readProfile(filepath.Join(d.dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	foldLayers(l, fold.FoldCPU(cpu), "serve-stream daemon")
	days := 0
	var size int64
	for i, n := range next {
		days += n
		size += max(ckptSize(d, i), 0)
	}
	meterDays := float64(days * meters)
	coreLayers(l, setupEv)
	gameLayers(l, mon, meterDays)
	l["community.step_day_ms"] = 1000 * ratio(mon.spanSec["engine.monitor_day"], float64(mon.spanN["engine.monitor_day"]))
	l["checkpoint.save_ms"] = 1000 * ratio(mon.statSum["checkpoint.save_seconds"], float64(mon.statN["checkpoint.save_seconds"]))
	l["serve.server_ms"] = 1000 * ratio(mon.statSum["serve.request_seconds"], float64(mon.statN["serve.request_seconds"]))
	l["checkpoint.bytes"] = float64(size) / float64(len(next))
	l["checkpoint.bytes_per_day"] = ratio(float64(size), float64(days))
	var readMs, readBytes []float64
	for _, r := range ref.reads {
		readMs = append(readMs, ms(r.lat))
		readBytes = append(readBytes, float64(r.bytes))
	}
	l["serve.records_ms"], l["serve.records_bytes"] = 0, 0 // no reads in the phase
	if len(readMs) > 0 {
		l["serve.records_ms"] = quantile(readMs, 0.5)
		l["serve.records_bytes"] = mean(readBytes)
	}
	l["serve.gen_lateness_ms"] = quantile(ref.lateness, 0.99)
	l["parallel.cpu_util_setup"] = ratio(setupCPU, setupWall.Seconds()*float64(runtime.NumCPU()))
	l["parallel.cpu_util_monitor"] = ratio(loadCPU, loadWall.Seconds()*float64(runtime.NumCPU()))
	l["alloc_bytes_per_meter_day"] = ratio(float64(alloc-setupAlloc), meterDays)
	zero(l, "fleet.tick_ms", "fleet.straggler_ms")
	return nil
}

func readProfile(path string) (*fold.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fold.Parse(f)
}
