// Command nmattack generates attack artifacts: it reads (or synthesizes) a
// guideline price, applies a chosen manipulation, and prints the clean and
// manipulated prices side by side, plus a sample compromise-campaign trace.
//
// Usage:
//
//	nmattack [-attack zero|scale|invert] [-from 16] [-to 17] [-factor 0.5]
//	         [-n 500] [-prob 0.25] [-batchlo 5] [-batchhi 20] [-hours 48] [-seed 1]
//	         [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The -attack flag also accepts the compact scenario form
// kind[:from-to[:value]] covering every archetype (ramp:12-20:0.3, delay:3,
// load-shift:10-14:0.4, false-reading:10-15:0.8, adaptive, ...); the bare
// legacy kinds keep reading -from/-to/-factor.
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"nmdetect/internal/attack"
	"nmdetect/internal/cli"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/scenario"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

var (
	obsFlags = cli.NewObs(true)
	atkStr   = flag.String("attack", "zero", "manipulation: bare zero|scale|invert (window flags) or compact kind[:from-to[:value]], e.g. ramp:12-20:0.3, delay:3, false-reading:10-15:0.8")
	from     = flag.Int("from", 16, "window start slot")
	to       = flag.Int("to", 17, "window end slot")
	factor   = flag.Float64("factor", 0.5, "scale factor")
	n        = flag.Int("n", 500, "community size for the campaign trace")
	prob     = flag.Float64("prob", 0.25, "per-slot compromise probability")
	batchLo  = flag.Int("batchlo", 5, "min meters per compromise batch")
	batchHi  = flag.Int("batchhi", 20, "max meters per compromise batch")
	hours    = flag.Int("hours", 48, "campaign length in slots")
	seed     = flag.Uint64("seed", 1, "campaign seed")
)

func main() { cli.Main("nmattack", realMain) }

// realMain stops the campaign loop at the next slot on SIGINT/SIGTERM, so
// the event stream is flushed instead of truncated mid-write.
func realMain(ctx context.Context) error {
	if err := obsFlags.Start(obs.RunConfig{Cmd: "nmattack", Seed: *seed}); err != nil {
		return err
	}

	var blk scenario.Attack
	if strings.ContainsRune(*atkStr, ':') || *atkStr == "none" {
		parsed, err := scenario.ParseAttack(*atkStr)
		if err != nil {
			return cli.Invalid(err)
		}
		blk = parsed
	} else {
		// Legacy bare kinds keep honouring the window/factor flags.
		blk = scenario.Attack{Kind: *atkStr, From: *from, To: *to, Factor: *factor}
		if *atkStr == "invert" {
			blk = scenario.Attack{Kind: "invert"}
		}
	}
	// An adaptive payload is untuned here (there is no detector in the
	// loop), so it applies its family at full strength; 0.5 is the default
	// flagger threshold it would otherwise target.
	atk, err := blk.Build(0.5)
	if err != nil {
		return cli.Invalid(err)
	}
	camp, err := attack.NewCampaign(*n, *prob, *batchLo, *batchHi, atk)
	if err != nil {
		return cli.Invalid(err)
	}

	// A representative diurnal price to manipulate.
	form := tariff.DefaultFormation()
	demand := make(timeseries.Series, 24)
	ren := make(timeseries.Series, 24)
	for h := 0; h < 24; h++ {
		demand[h] = float64(*n) * (0.8 + 0.6*dayShape(h))
		if h >= 10 && h < 16 {
			ren[h] = float64(*n) * 0.9
		}
	}
	price, err := form.Publish(demand, ren, *n, true, nil)
	if err != nil {
		return err
	}
	manipulated := atk.Apply(price)

	fmt.Printf("# manipulation: %s\n", atk.Name())
	fmt.Println("slot,published,manipulated")
	for h := 0; h < 24; h++ {
		fmt.Printf("%d,%.6f,%.6f\n", h, price[h], manipulated[h])
	}

	src := rng.New(*seed)
	defer obs.Default().Span("attack.campaign")()
	fmt.Println("\n# campaign trace")
	fmt.Println("hour,newly_hacked,total_hacked")
	for t := 0; t < *hours; t++ {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted after %d campaign slots", t)
		}
		newly := camp.Step(src)
		fmt.Printf("%d,%d,%d\n", t, newly, camp.Count())
	}
	return nil
}

func dayShape(h int) float64 {
	switch {
	case h >= 17 && h < 22:
		return 1
	case h >= 6 && h < 17:
		return 0.5
	default:
		return 0
	}
}
