package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"nmdetect/internal/core"
	"nmdetect/internal/fleet"
	"nmdetect/internal/scenario"
)

// Fleet shape: many small flat communities, as nmdetect -communities runs
// them in process.
const (
	fleetCommunities = 12
	fleetSize        = 24
	// A fleet pass runs a fixed number of ticks, the measured seconds over
	// fleetNominalTick (a tick's length on the reference host) but at least
	// fleetMinTicks, so every run times the same days. detect_accuracy is
	// taken over the first fleetMinTicks days of every community.
	fleetMinTicks    = 4
	fleetNominalTick = 1250 * time.Millisecond
)

// runFleet is the nmdetect -communities path: fleet.BuildRange builds every
// community, then fleet.DriveRange advances the shared day loop one tick per
// call.
func runFleet(ctx context.Context, o options, traced bool) (*pass, error) {
	comms, size := fleetCommunities, fleetSize
	if o.toy {
		comms, size = 3, 8
	}
	spec := scenario.Default(size, worldSeed)
	spec.Fleet = &scenario.Fleet{Communities: comms}
	cfg, err := spec.FleetConfig()
	if err != nil {
		return nil, err
	}

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
	runners, err := fleet.BuildRange(ctx, cfg, 0, comms)
	if err != nil {
		return nil, err
	}
	setup.end()

	if err := tr.phase("monitor"); err != nil {
		return nil, err
	}
	var (
		mu   sync.Mutex
		done []time.Time // completion times of the current tick
	)
	onDay := func(community, day int) {
		mu.Lock()
		done = append(done, time.Now())
		mu.Unlock()
	}
	p1 := probe()
	mon := beginPhase()
	ticks := max(fleetMinTicks, int(math.Round(o.seconds.Seconds()/fleetNominalTick.Seconds())))
	var tickMs, stragglerMs []float64
	for tick := 0; tick < ticks; tick++ {
		// DriveRange runs ticks [0, cfg.Days) and skips those every runner
		// has already completed, so raising Days by one drives one tick.
		cfg.Days = tick + 1
		done = done[:0]
		t0 := time.Now()
		p.attempted += int64(comms)
		if err := fleet.DriveRange(ctx, cfg, 0, runners, onDay); err != nil {
			return nil, fmt.Errorf("fleet: tick %d: %w", tick, err)
		}
		tickMs = append(tickMs, ms(time.Since(t0)))
		if len(done) != comms {
			p.fail("tick %d: %d of %d communities reported a day", tick, len(done), comms)
			continue
		}
		offsets := make([]float64, len(done))
		for i, t := range done {
			offsets[i] = ms(t.Sub(t0))
		}
		stragglerMs = append(stragglerMs, quantile(offsets, 1)-quantile(offsets, 0.5))
	}
	mon.end()
	setupSpeed, monSpeed := speed{p0, p1}, speed{p1, probe()}
	tab, err := tr.stop()
	if err != nil {
		return nil, err
	}

	rep, err := fleet.NewReport(cfg, runners)
	if err != nil {
		p.fail("fleet report: %v", err)
	} else {
		r := rep.Rollup
		if rep.Failed != 0 {
			p.fail("fleet report: %d failed communities", rep.Failed)
		}
		for _, v := range []float64{r.MeanAccuracy, r.MinAccuracy, r.MaxAccuracy, r.MeanPAR, r.MaxPAR, r.MeanDelaySlots} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				p.fail("fleet rollup not finite: %+v", r)
				break
			}
		}
	}
	var accs []float64
	for _, r := range runners {
		accs = append(accs, core.ObservationAccuracy(r.Results()[:fleetMinTicks]))
	}
	acc := mean(accs)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	meterDays := float64(comms * size * cfg.Days)
	fmt.Printf("fleet: %d x %d meters, %d ticks in %.2fs (setup %.2fs), accuracy %.4f over the first %d days; setup %v; monitor %v\n",
		comms, size, cfg.Days, mon.wall.Seconds(), setup.wall.Seconds(), acc, fleetMinTicks, setupSpeed, monSpeed)

	p.e2e["setup_s"] = setupSpeed.times(setup.wall.Seconds())
	p.e2e["meter_days_per_s"] = monSpeed.rate(meterDays / mon.wall.Seconds())
	p.e2e["max_readings_per_s"] = 24 * p.e2e["meter_days_per_s"]
	p.e2e["day_p50_ms"] = monSpeed.times(quantile(tickMs, 0.50))
	p.e2e["day_p90_ms"] = monSpeed.times(quantile(tickMs, 0.90))
	p.e2e["max_rss_mb"] = rss
	p.e2e["detect_accuracy"] = acc

	if traced {
		l := p.layers
		foldLayers(l, tab, "fleet-small")
		coreLayers(l, tr.phases["setup"])
		monEv := tr.phases["monitor"]
		gameLayers(l, monEv, meterDays)
		// DriveRange steps the runners itself, so the per-community day comes
		// from the engine's own monitor-day span.
		l["community.step_day_ms"] = 1000 * ratio(monEv.spanSec["engine.monitor_day"], float64(monEv.spanN["engine.monitor_day"]))
		l["fleet.tick_ms"] = quantile(tickMs, 0.50)
		l["fleet.straggler_ms"] = quantile(stragglerMs, 0.50)
		l["parallel.cpu_util_setup"] = setup.cpuUtil()
		l["parallel.cpu_util_monitor"] = mon.cpuUtil()
		l["alloc_bytes_per_meter_day"] = float64(mon.allocB) / meterDays
		zero(l, "checkpoint.save_ms", "checkpoint.bytes", "checkpoint.bytes_per_day",
			"serve.server_ms", "serve.http_rtt_ms", "serve.records_ms", "serve.records_bytes", "serve.gen_lateness_ms")
	}
	return p, nil
}
