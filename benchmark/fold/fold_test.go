package fold

import (
	"bytes"
	"compress/gzip"
	"os"
	"testing"
)

// enc is a minimal protobuf writer for building fixture profiles.
type enc struct{ b []byte }

func (e *enc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *enc) uint(field int, v uint64) {
	e.varint(uint64(field) << 3)
	e.varint(v)
}

func (e *enc) bytes(field int, b []byte) {
	e.varint(uint64(field)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *enc) msg(field int, build func(*enc)) {
	var m enc
	build(&m)
	e.bytes(field, m.b)
}

func (e *enc) packed(field int, vs ...uint64) {
	var m enc
	for _, v := range vs {
		m.varint(v)
	}
	e.bytes(field, m.b)
}

// fixtureFrame is one fixture stack entry; frames sharing a location are
// inlined into the frame after them.
type fixtureFrame struct {
	fn, file string
	inlined  bool
}

// buildProfile encodes a CPU profile whose samples are the given stacks
// (leaf first), each worth 10ms, in the layout runtime/pprof writes: a
// location per physical frame, inlined callees listed first in its lines.
func buildProfile(stacks [][]fixtureFrame) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		for i, t := range strs {
			if t == s {
				idx[s] = uint64(i)
				return uint64(i)
			}
		}
		strs = append(strs, s)
		idx[s] = uint64(len(strs) - 1)
		return idx[s]
	}
	var p enc
	p.msg(1, func(m *enc) { m.uint(1, str("samples")); m.uint(2, str("count")) })
	p.msg(1, func(m *enc) { m.uint(1, str("cpu")); m.uint(2, str("nanoseconds")) })
	funcs := map[string]uint64{}
	var locID uint64
	var fnDefs, locDefs enc
	for _, stack := range stacks {
		var locs []uint64
		var lines []uint64
		for _, f := range stack {
			id, ok := funcs[f.fn]
			if !ok {
				id = uint64(len(funcs) + 1)
				funcs[f.fn] = id
				fn, file := f.fn, f.file
				fnDefs.msg(5, func(m *enc) { m.uint(1, id); m.uint(2, str(fn)); m.uint(4, str(file)) })
			}
			lines = append(lines, id)
			if f.inlined {
				continue
			}
			locID++
			loc, ls := locID, lines
			locDefs.msg(4, func(m *enc) {
				m.uint(1, loc)
				for _, fid := range ls {
					m.msg(4, func(l *enc) { l.uint(1, fid); l.uint(2, 1) })
				}
			})
			locs = append(locs, loc)
			lines = nil
		}
		p.msg(2, func(m *enc) { m.packed(1, locs...); m.packed(2, 1, 10_000_000) })
	}
	p.b = append(p.b, locDefs.b...)
	p.b = append(p.b, fnDefs.b...)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b) //nolint:errcheck // writes to a bytes.Buffer
	zw.Close()    //nolint:errcheck // writes to a bytes.Buffer
	return gz.Bytes()
}

func fr(fn, file string) fixtureFrame { return fixtureFrame{fn: fn, file: file} }

const m = "nmdetect/internal/"

// fixture pairs each stack with the layer it must fold into.
var fixture = []struct {
	layer string
	stack []fixtureFrame
}{
	{CeoptSample, []fixtureFrame{
		{fn: m + "rng.(*Source).Normal", file: "rng.go", inlined: true},
		fr(m+"rng.(*Source).TruncNormal", "rng.go"),
		fr(m+"ceopt.(*Workspace).Minimize", "ceopt.go"),
		fr(m+"game.bestResponse", "game.go"),
		fr("main.main", "main.go"),
	}},
	{CeoptSample, []fixtureFrame{
		fr("runtime.memmove", "memmove.s"),
		fr("sort.Sort", "sort.go"),
		fr(m+"ceopt.(*Workspace).Minimize", "ceopt.go"),
	}},
	{CeoptEval, []fixtureFrame{
		fr(m+"tariff.Quadratic.Cost", "tariff.go"),
		fr(m+"game.bestResponse.func4", "game.go"),
		fr(m+"ceopt.(*Workspace).Minimize", "ceopt.go"),
		fr(m+"game.bestResponse", "game.go"),
	}},
	{Dpsched, []fixtureFrame{
		fr(m+"dpsched.(*Workspace).Schedule", "workspace.go"),
		fr(m+"game.bestResponse", "game.go"),
	}},
	{GameOuter, []fixtureFrame{
		fr("runtime.mallocgc", "malloc.go"),
		fr(m+"game.solveHierarchical", "/src/internal/game/hier.go"),
	}},
	{GameSweep, []fixtureFrame{
		fr(m+"rng.(*Source).Derive", "rng.go"),
		fr(m+"game.SolveMixedWS", "/src/internal/game/game.go"),
		fr(m+"game.solveHierarchical", "/src/internal/game/hier.go"),
	}},
	{RuntimeGC, []fixtureFrame{
		fr("runtime.scanobject", "mgcmark.go"),
		fr("runtime.gcDrain", "mgcmark.go"),
		fr("runtime.gcBgMarkWorker", "mgc.go"),
	}},
	{RuntimeGC, []fixtureFrame{
		fr("runtime.gcAssistAlloc", "mgcmark.go"),
		fr("runtime.mallocgc", "malloc.go"),
		fr(m+"ceopt.(*Workspace).Minimize", "ceopt.go"),
	}},
	{PomdpSolve, []fixtureFrame{
		fr(m+"pomdp.(*Model).Update", "pomdp.go"),
		fr(m+"pomdp.SolvePBVI", "solve.go"),
		fr(m+"core.(*System).buildLongTerm", "core.go"),
	}},
	{PomdpBelief, []fixtureFrame{
		fr(m+"pomdp.(*Model).Update", "pomdp.go"),
		fr(m+"detect.(*LongTerm).Step", "longterm.go"),
	}},
	{ForecastTrain, []fixtureFrame{
		fr(m+"mat.Solve", "mat.go"),
		fr(m+"svr.TrainLSSVM", "lssvm.go"),
		fr(m+"forecast.Train", "forecast.go"),
	}},
	{Checkpoint, []fixtureFrame{
		fr("encoding/gob.(*Encoder).Encode", "encoder.go"),
		fr(m+"checkpoint.Save", "checkpoint.go"),
		fr(m+"core.(*Runner).Checkpoint", "runner.go"),
		fr(m+"serve.(*Server).stepSessionDay", "serve.go"),
	}},
	{ServeHTTP, []fixtureFrame{
		fr("syscall.Syscall", "syscall_linux.go"),
		fr("internal/poll.(*FD).Read", "fd_unix.go"),
		fr("net/http.(*conn).serve", "server.go"),
	}},
	{ServeHTTP, []fixtureFrame{
		fr("encoding/json.(*encodeState).marshal", "encode.go"),
		fr(m+"serve.writeJSON", "serve.go"),
	}},
	{Community, []fixtureFrame{
		fr(m+"household.(*Customer).BaseLoad", "household.go"),
		fr(m+"community.(*Engine).SimulateDay", "engine.go"),
	}},
	{Bench, []fixtureFrame{
		fr("strconv.FormatFloat", "ftoa.go"),
		fr("main.main", "main.go"),
	}},
	{RuntimeOther, []fixtureFrame{
		fr("runtime.futex", "os_linux.go"),
		fr("runtime.findRunnable", "proc.go"),
		fr("runtime.schedule", "proc.go"),
	}},
	{Unattributed, []fixtureFrame{
		fr("strings.Index", "strings.go"),
		fr("os.Getenv", "env.go"),
	}},
}

func TestClassifyFixture(t *testing.T) {
	var stacks [][]fixtureFrame
	for _, f := range fixture {
		stacks = append(stacks, f.stack)
	}
	p, err := Parse(bytes.NewReader(buildProfile(stacks)))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != len(fixture) {
		t.Fatalf("decoded %d samples, want %d", len(p.Samples), len(fixture))
	}
	for i, s := range p.Samples {
		if got := Classify(s.Stack); got != fixture[i].layer {
			t.Errorf("stack %d (%s): layer %q, want %q", i, s.Stack[0].Func, got, fixture[i].layer)
		}
	}
	// The inlined rng.Normal expands to its own frame ahead of TruncNormal.
	if got := p.Samples[0].Stack[0].Func; got != m+"rng.(*Source).Normal" {
		t.Errorf("leaf of sample 0 is %q, want the inlined rng.(*Source).Normal", got)
	}
	tab := FoldCPU(p)
	if tab.Total != int64(len(fixture))*10_000_000 {
		t.Errorf("total %d ns, want %d", tab.Total, len(fixture)*10_000_000)
	}
	if got, want := tab.Frac(CeoptSample), 2.0/float64(len(fixture)); got != want {
		t.Errorf("ceopt.sample share %v, want %v", got, want)
	}
	if got := tab.Layers()[0]; got != CeoptSample && got != RuntimeGC && got != ServeHTTP {
		t.Errorf("largest layer %q, want one of the two-sample layers", got)
	}
}

// TestFoldRecordedProfile folds a CPU profile recorded from a short
// sharded nmdetect run (nmdetect -n 24 -shards 2 -days 2 -cpuprofile):
// the layer rules must cover at least 90% of it, and CE sampling must be
// its largest layer.
func TestFoldRecordedProfile(t *testing.T) {
	f, err := os.Open("testdata/nmdetect-n24.pprof")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	tab := FoldCPU(p)
	if tab.Total == 0 {
		t.Fatal("empty profile")
	}
	if u := tab.Frac(Unattributed); u > 0.10 {
		t.Errorf("unattributed share %.3f > 0.10", u)
	}
	if top := tab.Layers()[0]; top != CeoptSample {
		t.Errorf("largest layer %q, want %q", top, CeoptSample)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	var e enc
	e.msg(2, func(m *enc) { m.packed(1, 1, 2, 3) })
	if _, err := Parse(bytes.NewReader(e.b[:len(e.b)-2])); err == nil {
		t.Error("truncated profile parsed without error")
	}
}
