package fold

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Layers of the per-layer table, each with the metric name the benchmark
// reports its CPU share under. Unattributed is the fold's coverage residual.
const (
	CeoptSample    = "ceopt.sample"
	CeoptEval      = "ceopt.eval"
	Dpsched        = "dpsched"
	GameSweep      = "game.sweep"
	GameOuter      = "game.outer"
	ForecastTrain  = "forecast.train"
	ForecastPred   = "forecast.predict"
	PomdpSolve     = "pomdp.solve"
	PomdpBelief    = "pomdp.belief"
	Detect         = "detect"
	Checkpoint     = "checkpoint"
	ServeHTTP      = "serve.http"
	Community      = "community"
	Core           = "core"
	Fleet          = "fleet"
	Parallel       = "parallel"
	Obs            = "obs"
	Bench          = "bench"
	RuntimeGC      = "runtime.gc"
	RuntimeOther   = "runtime.other"
	Unattributed   = "unattributed"
	modulePrefix   = "nmdetect/internal/"
	benchMainFrame = "main."
)

// Metrics maps each reported layer to its per-layer metric name. The
// remaining layers (core, fleet, parallel, obs, bench, runtime.other) only
// appear in the printed table.
var Metrics = map[string]string{
	CeoptSample:   "ceopt.sample_cpu_frac",
	CeoptEval:     "ceopt.eval_cpu_frac",
	Dpsched:       "dpsched.cpu_frac",
	GameSweep:     "game.sweep_cpu_frac",
	GameOuter:     "game.outer_cpu_frac",
	ForecastTrain: "forecast.train_cpu_frac",
	ForecastPred:  "forecast.predict_cpu_frac",
	PomdpSolve:    "pomdp.solve_cpu_frac",
	PomdpBelief:   "pomdp.belief_cpu_frac",
	Detect:        "detect.cpu_frac",
	Checkpoint:    "checkpoint.cpu_frac",
	ServeHTTP:     "serve.http_cpu_frac",
	Community:     "community.cpu_frac",
	RuntimeGC:     "runtime.gc_cpu_frac",
	Unattributed:  "unattributed_cpu_frac",
}

// gcRoots are runtime functions under which all work is garbage collection:
// the background mark and sweep workers and the mutator's mark assists.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// pkgLayers maps a package of the program to its layer when it is the
// nearest owning frame above the leaf. Packages absent here (rng, mat,
// tariff, timeseries) are shared kernels and take the layer of their caller.
var pkgLayers = map[string]string{
	"dpsched":     Dpsched,
	"detect":      Detect,
	"forecast":    ForecastPred,
	"svr":         ForecastPred,
	"loadpred":    ForecastPred,
	"checkpoint":  Checkpoint,
	"serve":       ServeHTTP,
	"community":   Community,
	"household":   Community,
	"appliance":   Community,
	"solar":       Community,
	"battery":     Community,
	"billing":     Community,
	"metrics":     Community,
	"meterstate":  Community,
	"attack":      Community,
	"faultinject": Community,
	"core":        Core,
	"scenario":    Core,
	"fleet":       Fleet,
	"parallel":    Parallel,
	"obs":         Obs,
}

// stdHTTP are standard-library package prefixes whose work belongs to the
// HTTP/JSON layer when no program frame sits between them and the leaf.
var stdHTTP = []string{"net/http.", "net.", "net/textproto.", "internal/poll.", "encoding/json."}

// pkgOf returns the program package of a function name, or "".
func pkgOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// Classify attributes one call stack, leaf first, to a layer. Rules, in
// order:
//
//  1. Any GC root on the stack: runtime.gc.
//  2. A ceopt frame on the stack: the nearest one above the leaf decides.
//     If only rng/ceopt frames (and runtime helpers) lie below it, the time
//     is spent sampling and updating the population: ceopt.sample. If any
//     other program frame lies below it (the objective closure and the
//     tariff under it), the time is cost evaluation: ceopt.eval.
//  3. Whole-stack scopes: anything under a POMDP solver is pomdp.solve,
//     anything under forecaster training is forecast.train, anything under
//     a checkpoint save or load is checkpoint.
//  4. The nearest program frame above the leaf whose package owns a layer
//     (pkgLayers) decides. game splits into game.outer for the shard
//     exchange in hier.go and game.sweep for the rest; pomdp outside a
//     solve is the belief update.
//  5. With no such frame, the nearest benchmark main frame is bench and the
//     nearest HTTP/JSON standard-library frame is serve.http.
//  6. A stack of only runtime and syscall frames is runtime.other.
//
// Anything else is unattributed.
func Classify(stack []Frame) string {
	for _, f := range stack {
		if gcRoots[f.Func] {
			return RuntimeGC
		}
	}
	for i, f := range stack {
		if pkgOf(f.Func) != "ceopt" {
			continue
		}
		for _, below := range stack[:i] {
			switch pkgOf(below.Func) {
			case "", "ceopt", "rng":
			default:
				return CeoptEval
			}
		}
		return CeoptSample
	}
	for _, f := range stack {
		switch pkg := pkgOf(f.Func); {
		case pkg == "pomdp" && strings.Contains(f.Func, ".Solve"):
			return PomdpSolve
		case (pkg == "forecast" || pkg == "svr") && strings.Contains(f.Func, ".Train"):
			return ForecastTrain
		case pkg == "checkpoint" && (strings.HasSuffix(f.Func, ".Save") || strings.HasSuffix(f.Func, ".Load")):
			return Checkpoint
		}
	}
	for _, f := range stack {
		switch pkg := pkgOf(f.Func); pkg {
		case "game":
			if strings.HasSuffix(f.File, "hier.go") {
				return GameOuter
			}
			return GameSweep
		case "pomdp":
			return PomdpBelief
		default:
			if l, ok := pkgLayers[pkg]; ok {
				return l
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.Func, benchMainFrame) {
			return Bench
		}
		for _, p := range stdHTTP {
			if strings.HasPrefix(f.Func, p) {
				return ServeHTTP
			}
		}
	}
	for _, f := range stack {
		if !strings.HasPrefix(f.Func, "runtime.") && !strings.HasPrefix(f.Func, "syscall.") &&
			!strings.HasPrefix(f.Func, "internal/") && !strings.HasPrefix(f.Func, "sync.") {
			return Unattributed
		}
	}
	return RuntimeOther
}

// Table is a folded profile: the summed sample value per layer.
type Table struct {
	Total int64
	Rows  map[string]int64
}

// Frac returns a layer's share of the total (0 for an empty table).
func (t Table) Frac(layer string) float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.Rows[layer]) / float64(t.Total)
}

// Layers returns the table's layers, largest first.
func (t Table) Layers() []string {
	out := make([]string, 0, len(t.Rows))
	for l := range t.Rows {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if t.Rows[out[i]] != t.Rows[out[j]] {
			return t.Rows[out[i]] > t.Rows[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Write prints the table, largest layer first, one "layer share" row each.
func (t Table) Write(w io.Writer, label string) error {
	if _, err := fmt.Fprintf(w, "layer table (%s, %.2f CPU-s):\n", label, float64(t.Total)/1e9); err != nil {
		return err
	}
	for _, l := range t.Layers() {
		if _, err := fmt.Fprintf(w, "  %-18s %6.2f%%\n", l, 100*t.Frac(l)); err != nil {
			return err
		}
	}
	return nil
}

// FoldCPU folds a CPU profile's "cpu" values into layers.
func FoldCPU(p *Profile) Table {
	t := Table{Rows: map[string]int64{}}
	vi := p.ValueIndex("cpu")
	if vi < 0 {
		return t
	}
	for _, s := range p.Samples {
		v := s.Values[vi]
		t.Rows[Classify(s.Stack)] += v
		t.Total += v
	}
	return t
}
