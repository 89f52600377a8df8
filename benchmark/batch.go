package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"nmdetect/internal/core"
	"nmdetect/internal/scenario"
)

// batchCheckpointEvery is nmdetect's default -checkpoint-every.
const batchCheckpointEvery = 10

// A batch pass monitors a fixed number of days, the measured seconds over
// batchNominalDay (a day's length on the reference host) but at least
// batchMinDays, so every run times the same days. detect_accuracy is taken
// over the first batchMinDays.
const (
	batchMinDays    = 2
	batchNominalDay = 5 * time.Second
)

// runBatch is the nmdetect path on the scale500 world: core.NewSystem, then
// a Runner stepped one day at a time with checkpoints at nmdetect's default
// cadence and at the end.
func runBatch(ctx context.Context, o options, traced bool) (*pass, error) {
	spec, err := scenario.Preset("scale500")
	if err != nil {
		return nil, err
	}
	if o.toy {
		spec = scenario.Default(24, worldSeed)
		spec.Game.Shards = 2
	}
	opts, err := spec.CoreOptions()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	ckpt := filepath.Join(o.workdir, "run.ckpt")

	p := newPass()
	tr, err := newTracer(traced)
	if err != nil {
		return nil, err
	}
	if err := tr.phase("setup"); err != nil {
		return nil, err
	}
	p0 := probe()
	setup := beginPhase()
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		return nil, err
	}
	setup.end()
	camp, err := sys.NewCampaign()
	if err != nil {
		return nil, err
	}
	runner, err := sys.NewRunner(sys.Aware, camp, true, ckpt, batchCheckpointEvery)
	if err != nil {
		return nil, err
	}

	if err := tr.phase("monitor"); err != nil {
		return nil, err
	}
	p1 := probe()
	days := max(batchMinDays, int(math.Round(o.seconds.Seconds()/batchNominalDay.Seconds())))
	mon := beginPhase()
	var dayMs, stepMs, saveMs []float64
	for done := 0; done < days; {
		t0 := time.Now()
		p.attempted++
		if err := runner.StepDay(ctx); err != nil {
			return nil, fmt.Errorf("batch: day %d: %w", done, err)
		}
		stepMs = append(stepMs, ms(time.Since(t0)))
		done++
		if runner.CheckpointDue(done, days) {
			t1 := time.Now()
			p.attempted++
			if err := runner.Checkpoint(); err != nil {
				p.fail("checkpoint after day %d: %v", done, err)
			}
			saveMs = append(saveMs, ms(time.Since(t1)))
		}
		dayMs = append(dayMs, ms(time.Since(t0)))
	}
	mon.end()
	setupSpeed, monSpeed := speed{p0, p1}, speed{p1, probe()}
	tab, err := tr.stop()
	if err != nil {
		return nil, err
	}

	results := runner.Results()
	meterDays := float64(spec.N * len(results))
	acc := core.ObservationAccuracy(results[:batchMinDays])
	par := core.RealizedPAR(results)
	if math.IsNaN(acc) || math.IsInf(acc, 0) || math.IsNaN(par) || math.IsInf(par, 0) {
		p.fail("non-finite results: accuracy %v, PAR %v", acc, par)
	}
	for d, r := range results {
		if len(r.Flagged) != 24 || len(r.Actions) != 24 {
			p.fail("day %d: %d flagged slots, %d actions, want 24", d, len(r.Flagged), len(r.Actions))
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		p.fail("checkpoint file: %v", err)
	}
	fmt.Printf("batch: %d meters, %d days in %.2fs (setup %.2fs), %d checkpoints, accuracy %.4f over the first %d days; setup %v; monitor %v\n",
		spec.N, len(results), mon.wall.Seconds(), setup.wall.Seconds(), len(saveMs), acc, batchMinDays, setupSpeed, monSpeed)

	p.e2e["setup_s"] = setupSpeed.times(setup.wall.Seconds())
	p.e2e["meter_days_per_s"] = monSpeed.rate(meterDays / mon.wall.Seconds())
	p.e2e["max_readings_per_s"] = 24 * p.e2e["meter_days_per_s"]
	p.e2e["day_p50_ms"] = monSpeed.times(quantile(dayMs, 0.50))
	p.e2e["day_p90_ms"] = monSpeed.times(quantile(dayMs, 0.90))
	p.e2e["max_rss_mb"] = rss
	p.e2e["detect_accuracy"] = acc

	if traced {
		l := p.layers
		foldLayers(l, tab, "batch-scale500")
		coreLayers(l, tr.phases["setup"])
		gameLayers(l, tr.phases["monitor"], meterDays)
		l["community.step_day_ms"] = quantile(stepMs, 0.50)
		l["checkpoint.save_ms"] = quantile(saveMs, 0.50)
		if fi != nil {
			l["checkpoint.bytes"] = float64(fi.Size())
			l["checkpoint.bytes_per_day"] = float64(fi.Size()) / float64(len(results))
		}
		l["parallel.cpu_util_setup"] = setup.cpuUtil()
		l["parallel.cpu_util_monitor"] = mon.cpuUtil()
		l["alloc_bytes_per_meter_day"] = float64(mon.allocB) / meterDays
		zero(l, "serve.server_ms", "serve.http_rtt_ms", "serve.records_ms", "serve.records_bytes",
			"serve.gen_lateness_ms", "fleet.tick_ms", "fleet.straggler_ms")
	}
	return p, nil
}

// zero reports layers a workload does not exercise as 0.
func zero(layers map[string]float64, names ...string) {
	for _, n := range names {
		layers[n] = 0
	}
}
