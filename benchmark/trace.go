package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nmdetect/benchmark/fold"
	"nmdetect/internal/obs"
)

// events aggregates one obs event stream: span counts and total durations,
// counters, and value statistics, by name.
type events struct {
	spanN   map[string]int64
	spanSec map[string]float64
	counter map[string]int64
	statN   map[string]int64
	statSum map[string]float64
}

func newEvents() *events {
	return &events{
		spanN: map[string]int64{}, spanSec: map[string]float64{}, counter: map[string]int64{},
		statN: map[string]int64{}, statSum: map[string]float64{},
	}
}

// parseEvents reads a JSONL stream written by an obs.Sink.
func parseEvents(r io.Reader) (*events, error) {
	ev := newEvents()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec struct {
			Type string  `json:"type"`
			Name string  `json:"name"`
			Ns   int64   `json:"ns"`
			N    int64   `json:"n"`
			Sum  float64 `json:"sum"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("event stream: %w", err)
		}
		switch rec.Type {
		case "span":
			ev.spanN[rec.Name]++
			ev.spanSec[rec.Name] += float64(rec.Ns) / 1e9
		case "counter":
			ev.counter[rec.Name] += rec.N
		case "stat":
			ev.statN[rec.Name] += rec.N
			ev.statSum[rec.Name] += rec.Sum
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("event stream: %w", err)
	}
	return ev, nil
}

// minus returns the counts of ev less those of base: the events of a
// stream's tail when base is its (deterministic) head.
func (ev *events) minus(base *events) *events {
	out := newEvents()
	for k, v := range ev.spanN {
		out.spanN[k] = v - base.spanN[k]
	}
	for k, v := range ev.spanSec {
		out.spanSec[k] = v - base.spanSec[k]
	}
	for k, v := range ev.counter {
		out.counter[k] = v - base.counter[k]
	}
	for k, v := range ev.statN {
		out.statN[k] = v - base.statN[k]
	}
	for k, v := range ev.statSum {
		out.statSum[k] = v - base.statSum[k]
	}
	return out
}

// counterSuffix sums every counter whose name ends in suffix (the per-shard
// game.shard.NNN.solves counters, say).
func (ev *events) counterSuffix(prefix, suffix string) int64 {
	var n int64
	for name, v := range ev.counter {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

// topSolves counts game solves issued by the engine: every game.solve span
// except the per-shard inner solves of the hierarchical solver.
func (ev *events) topSolves() int64 {
	return ev.spanN["game.solve"] - ev.counterSuffix("game.shard.", ".solves")
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phase is one measured stretch of an in-process pass: wall time, process
// CPU and allocated bytes between begin and end.
type phase struct {
	start  time.Time
	cpu    float64
	alloc  uint64
	wall   time.Duration
	cpuSec float64
	allocB uint64
}

func beginPhase() *phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &phase{start: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc}
}

func (p *phase) end() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.wall = time.Since(p.start)
	p.cpuSec = cpuSeconds() - p.cpu
	p.allocB = ms.TotalAlloc - p.alloc
}

// cpuUtil is process CPU over wall time times GOMAXPROCS.
func (p *phase) cpuUtil() float64 {
	return ratio(p.cpuSec, p.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
}

// tracer is the traced pass's collector for an in-process workload: a CPU
// profile of the whole pass and one obs sink per phase, installed as the
// process default so every layer that already emits events writes into it.
// The untraced pass uses a disabled tracer, whose methods do nothing.
type tracer struct {
	on     bool
	prof   bytes.Buffer
	buf    *bytes.Buffer
	sink   *obs.Sink
	phases map[string]*events
	name   string
}

func newTracer(on bool) (*tracer, error) {
	t := &tracer{on: on, phases: map[string]*events{}}
	if on {
		if err := pprof.StartCPUProfile(&t.prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return t, nil
}

// phase closes the current phase's sink and opens one for the named phase.
func (t *tracer) phase(name string) error {
	if !t.on {
		return nil
	}
	if err := t.closeSink(); err != nil {
		return err
	}
	t.name, t.buf = name, &bytes.Buffer{}
	t.sink = obs.NewSink(t.buf)
	obs.SetDefault(t.sink)
	return nil
}

func (t *tracer) closeSink() error {
	if t.sink == nil {
		return nil
	}
	obs.SetDefault(nil)
	if err := t.sink.Close(); err != nil {
		return err
	}
	ev, err := parseEvents(t.buf)
	if err != nil {
		return err
	}
	t.phases[t.name] = ev
	t.sink = nil
	return nil
}

// stop ends tracing and returns the folded CPU profile; each phase's
// events are then in phases.
func (t *tracer) stop() (fold.Table, error) {
	if !t.on {
		return fold.Table{}, nil
	}
	pprof.StopCPUProfile()
	if err := t.closeSink(); err != nil {
		return fold.Table{}, err
	}
	p, err := fold.Parse(&t.prof)
	if err != nil {
		return fold.Table{}, err
	}
	return fold.FoldCPU(p), nil
}

// foldLayers copies the folded CPU shares into the per-layer metrics and
// prints the layer table.
func foldLayers(layers map[string]float64, tab fold.Table, label string) {
	for layer, metric := range fold.Metrics {
		layers[metric] = tab.Frac(layer)
	}
	tab.Write(os.Stdout, label) //nolint:errcheck // diagnostics on stdout
}

// coreLayers copies the offline-phase stage spans of core.NewSystem (summed
// over every system built in the phase) into the per-layer metrics.
func coreLayers(layers map[string]float64, setup *events) {
	for _, stage := range []string{"bootstrap", "learn_baselines", "calibrate", "solve_policy", "train_forecasters"} {
		layers["core."+stage+"_s"] = setup.spanSec["core."+stage]
	}
	layers["pomdp.backups"] = float64(setup.counter["pomdp.backups"])
}

// gameLayers derives the monitor phase's game and ceopt work counts per
// monitored meter-day.
func gameLayers(layers map[string]float64, mon *events, meterDays float64) {
	layers["game.solves_per_meter_day"] = ratio(float64(mon.topSolves()), meterDays)
	layers["ceopt.generations_per_meter_day"] = ratio(float64(mon.counter["ceopt.generations"]), meterDays)
	layers["game.sweeps_per_solve"] = ratio(float64(mon.counter["game.sweeps"]), float64(mon.spanN["game.solve"]))
	layers["game.outer_sweeps_per_solve"] = ratio(float64(mon.counter["game.outer.sweeps"]), float64(mon.spanN["game.solve.outer"]))
}
