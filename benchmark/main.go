// Command nmbench is the repository benchmark. It runs one workload end to
// end through the same public entry points the commands use, checks that the
// outputs are correct, and prints every metric by name with its unit. The
// last line of standard output is the result as one JSON object.
//
// Usage (from the repository root; benchmark/run.sh builds and runs it):
//
//	nmbench -workload batch-scale500|fleet-small|serve-stream -seed 1 -seconds 15 -trace 0|1 [-toy]
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 the
// workload runs twice with the same seed, untraced then traced, and the
// result holds the per-layer metrics of the traced pass plus the tracing
// overhead between the two. -toy shrinks every workload to a seconds-long
// size for the benchmark's own tests.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"nmdetect/internal/rng"
)

// gitCommit is stamped by the build (-ldflags -X); "none" outside a git
// checkout.
var gitCommit = "none"

// options are the benchmark's inputs to one workload pass.
type options struct {
	seed      uint64
	seconds   time.Duration
	toy       bool
	workdir   string
	nmserve   string
	readEvery int
}

// pass is the outcome of one workload pass: end-to-end and per-layer
// metrics, operation counts, and the correctness verdict with reasons.
type pass struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed check or operation.
func (p *pass) fail(format string, a ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, a...))
}

type workloadFunc func(ctx context.Context, o options, traced bool) (*pass, error)

var workloads = map[string]workloadFunc{
	"batch-scale500": runBatch,
	"fleet-small":    runFleet,
	"serve-stream":   runServe,
}

// units is the single table of metric names and units; BENCHMARK.json
// mirrors it (checked by the benchmark's tests).
var units = map[string]string{
	// End to end.
	"setup_s":            "s",
	"meter_days_per_s":   "meter-day/s",
	"day_p50_ms":         "ms",
	"day_p90_ms":         "ms",
	"max_readings_per_s": "reading/s",
	"max_rss_mb":         "MB",
	"detect_accuracy":    "ratio",

	// Per layer: spans and counters the program emits (E), benchmark spans
	// (S), the folded CPU profile (P) and runtime/OS statistics (R).
	"core.bootstrap_s":                "s",
	"core.learn_baselines_s":          "s",
	"core.calibrate_s":                "s",
	"core.solve_policy_s":             "s",
	"core.train_forecasters_s":        "s",
	"community.step_day_ms":           "ms",
	"game.solves_per_meter_day":       "solve/meter-day",
	"ceopt.sample_cpu_frac":           "ratio",
	"ceopt.eval_cpu_frac":             "ratio",
	"ceopt.generations_per_meter_day": "gen/meter-day",
	"game.sweep_cpu_frac":             "ratio",
	"game.outer_cpu_frac":             "ratio",
	"game.sweeps_per_solve":           "sweep/solve",
	"game.outer_sweeps_per_solve":     "sweep/solve",
	"dpsched.cpu_frac":                "ratio",
	"forecast.train_cpu_frac":         "ratio",
	"forecast.predict_cpu_frac":       "ratio",
	"pomdp.solve_cpu_frac":            "ratio",
	"pomdp.backups":                   "count",
	"pomdp.belief_cpu_frac":           "ratio",
	"detect.cpu_frac":                 "ratio",
	"community.cpu_frac":              "ratio",
	"checkpoint.save_ms":              "ms",
	"checkpoint.bytes":                "B",
	"checkpoint.bytes_per_day":        "B/day",
	"checkpoint.cpu_frac":             "ratio",
	"serve.server_ms":                 "ms",
	"serve.http_rtt_ms":               "ms",
	"serve.http_cpu_frac":             "ratio",
	"serve.records_ms":                "ms",
	"serve.records_bytes":             "B",
	"serve.gen_lateness_ms":           "ms",
	"parallel.cpu_util_setup":         "ratio",
	"parallel.cpu_util_monitor":       "ratio",
	"fleet.tick_ms":                   "ms",
	"fleet.straggler_ms":              "ms",
	"runtime.gc_cpu_frac":             "ratio",
	"alloc_bytes_per_meter_day":       "B/meter-day",
	"unattributed_cpu_frac":           "ratio",
	"trace_overhead_frac":             "ratio",
	"trace_overhead_setup_frac":       "ratio",
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []string{
	"setup_s", "meter_days_per_s", "day_p50_ms", "day_p90_ms",
	"max_readings_per_s", "max_rss_mb", "detect_accuracy",
}

// perLayer lists the metrics of a traced run: every unit entry that is not
// end to end, sorted.
func perLayer() []string {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m] = true
	}
	var out []string
	for m := range units {
		if !e2e[m] {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "batch-scale500|fleet-small|serve-stream")
		seed     = flag.Uint64("seed", 1, "workload seed: picks the serve arrival schedule (the worlds are fixed, see worldSeed)")
		seconds  = flag.Float64("seconds", 15, "measured seconds of the monitor phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced pass")
		toy      = flag.Bool("toy", false, "seconds-long toy size of the workload")
		workdir  = flag.String("workdir", ".bench_build/work", "scratch directory for checkpoints and daemon state")
		nmserve  = flag.String("nmserve", ".bench_build/nmserve", "nmserve binary for serve-stream")
		readEv   = flag.Int("read-every", serveReadEvery, "serve-stream: one records read after every this many day POSTs (0: none during the load)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || *readEv < 0 {
		fmt.Fprintf(os.Stderr, "nmbench: need -workload %s, -trace 0|1, -seconds > 0 and -read-every >= 0\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), toy: *toy, nmserve: *nmserve, readEvery: *readEv}
	if err := os.RemoveAll(*workdir); err != nil {
		fatal(err)
	}
	printStamp(*workload, *seed, *seconds, *trace, *toy)

	o.workdir = *workdir + "/untraced"
	p, err := run(ctx, o, false)
	if err != nil {
		fatal(err)
	}
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricOut{}}
	problems := p.problems
	names := endToEnd
	vals := p.e2e
	if *trace == 1 {
		o.workdir = *workdir + "/traced"
		t, err := run(ctx, o, true)
		if err != nil {
			fatal(err)
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		problems = append(problems, t.problems...)
		t.layers["trace_overhead_frac"] = t.e2e["day_p50_ms"]/p.e2e["day_p50_ms"] - 1
		t.layers["trace_overhead_setup_frac"] = t.e2e["setup_s"]/p.e2e["setup_s"] - 1
		fmt.Printf("trace overhead: day_p50 %+.2f%%, setup %+.2f%% (DESIGN.md section 9.3 budget: 5%%)\n",
			100*t.layers["trace_overhead_frac"], 100*t.layers["trace_overhead_setup_frac"])
		for _, name := range endToEnd {
			fmt.Printf("untraced %-30s %14.6g %s\n", name, p.e2e[name], units[name])
		}
		names = perLayer()
		vals = t.layers
	}
	if err := os.RemoveAll(*workdir); err != nil {
		problems = append(problems, fmt.Sprintf("remove workdir: %v", err))
	}
	for _, name := range names {
		v, ok := vals[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s missing or not finite (%v)", name, v))
			res.Failed++
			v = -1
		}
		res.Metrics[name] = metricOut{Value: v, Unit: units[name]}
		fmt.Printf("metric %-32s %14.6g %s\n", name, v, units[name])
	}
	for _, pr := range problems {
		fmt.Println("problem:", pr)
	}
	res.Correct = len(problems) == 0
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nmbench:", err)
	os.Exit(1)
}

// printStamp writes the environment line every result carries.
func printStamp(workload string, seed uint64, seconds float64, trace int, toy bool) {
	stamp := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"toy":        toy,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"git_commit": gitCommit,
	}
	b, _ := json.Marshal(stamp) // a map of plain values always encodes
	fmt.Println("stamp", string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// worldSeed is the seed of every simulated world: the presets' seed. The
// worlds stay fixed because their cost and detection accuracy vary from
// seed to seed by more than any bound a regression check could use (one
// serve world in sixteen can slow the whole daemon 1.6x; batch accuracy
// over two days ranges 0.52-0.94). The benchmark seed picks the serve
// arrival schedule.
const worldSeed = 42

// deriveSeed derives an independent seed for label from seed.
func deriveSeed(seed uint64, label string) uint64 {
	return rng.New(seed).Derive("nmbench-" + label).State()
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
