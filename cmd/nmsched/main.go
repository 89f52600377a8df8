// Command nmsched schedules a single household's appliances against a
// guideline price — the smart controller of Section 2.1 as a standalone
// tool. It reads a household spec (JSON, see internal/household.Spec) and a
// 24-slot price (CSV "slot,price" or built-in default), runs the DP
// appliance scheduler and, if the household has PV and a battery, the
// cross-entropy storage optimization, and prints the resulting schedule and
// cost. A negative or non-finite -pv-scale, or a non-finite price, exits 2
// before the solve.
//
// Usage:
//
//	nmsched -spec household.json [-price price.csv] [-pv-scale 1.0] [-seed 1]
//	        [-events run.jsonl] [-pprof localhost:6060] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"nmdetect/internal/cli"
	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/obs"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

var (
	obsFlags  = cli.NewObs(true)
	specPath  = flag.String("spec", "", "household spec JSON (required)")
	pricePath = flag.String("price", "", "price CSV 'slot,price' (default: built-in TOU shape)")
	pvScale   = flag.Float64("pv-scale", 1.0, "clear-sky PV scale for the day (finite, >= 0)")
	seed      = flag.Uint64("seed", 1, "controller seed")
)

func main() { cli.Main("nmsched", realMain) }

func realMain(ctx context.Context) error {
	if err := obsFlags.Start(obs.RunConfig{Cmd: "nmsched", Seed: *seed, Workers: 1}); err != nil {
		return err
	}

	if *specPath == "" {
		return cli.Invalidf("-spec is required")
	}
	if math.IsNaN(*pvScale) || math.IsInf(*pvScale, 0) || *pvScale < 0 {
		return cli.Invalidf("-pv-scale %v: want a finite scale >= 0", *pvScale)
	}
	f, err := os.Open(*specPath)
	if err != nil {
		return err
	}
	customer, err := household.ParseSpec(f, 0)
	f.Close()
	if err != nil {
		return cli.Invalid(err)
	}

	price, err := loadPrice(*pricePath)
	if err != nil {
		return cli.Invalid(err)
	}

	// Realize the household's PV for a clear day at the requested scale.
	pv := make([]float64, 24)
	if customer.HasPV() {
		model := solar.DefaultModel()
		model.CloudSigma = 0.001
		trace := model.GenerateDay(customer.Panel, solar.Clear, rng.New(*seed).Derive("pv"))
		for h, v := range trace {
			pv[h] = v * *pvScale
		}
	}

	q, err := tariff.NewQuadratic(1.5)
	if err != nil {
		return err
	}
	cfg := game.DefaultConfig(q, customer.HasPV())
	cfg.MaxSweeps = 3
	var src *rng.Source
	var pvIn [][]float64
	if customer.HasPV() {
		src = rng.New(*seed)
		pvIn = [][]float64{pv}
	}
	res, err := game.Solve(ctx, []*household.Customer{customer}, price, pvIn, cfg, src)
	if err != nil {
		return err
	}

	fmt.Println("slot,price,pv_kw,consumption_kw,net_flow_kw,battery_kwh")
	for h := 0; h < 24; h++ {
		batt := 0.0
		if res.BatteryTraj[0] != nil {
			batt = res.BatteryTraj[0][h]
		}
		fmt.Printf("%d,%.5f,%.3f,%.3f,%.3f,%.3f\n",
			h, price[h], pv[h], res.CustomerLoad[0][h], res.CustomerTrading[0][h], batt)
	}
	fmt.Fprintf(os.Stderr, "nmsched: daily cost %.4f; consumption %.2f kWh; PV %.2f kWh\n",
		res.Cost[0], res.Load.Sum(), timeseries.Series(pv).Sum())
	return nil
}

// loadPrice reads a "slot,price" CSV (header optional) or returns the
// built-in time-of-use shape.
func loadPrice(path string) (timeseries.Series, error) {
	price := make(timeseries.Series, 24)
	if path == "" {
		form := tariff.DefaultFormation()
		for h := 0; h < 24; h++ {
			price[h] = form.Base[h]
		}
		return price, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	filled := 0
	for i, rec := range records {
		if len(rec) < 2 {
			return nil, fmt.Errorf("nmsched: price row %d has %d fields", i, len(rec))
		}
		slot, err1 := strconv.Atoi(rec[0])
		if err1 != nil {
			if i == 0 {
				continue // header
			}
			return nil, fmt.Errorf("nmsched: price row %d: %v", i, err1)
		}
		v, err2 := strconv.ParseFloat(rec[1], 64)
		if err2 != nil {
			return nil, fmt.Errorf("nmsched: price row %d: %v", i, err2)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("nmsched: price row %d: non-finite price %v", i, v)
		}
		if slot < 0 || slot >= 24 {
			return nil, fmt.Errorf("nmsched: slot %d out of range", slot)
		}
		price[slot] = v
		filled++
	}
	if filled != 24 {
		return nil, fmt.Errorf("nmsched: price covers %d slots, want 24", filled)
	}
	return price, nil
}
