package loadpred

import (
	"context"
	"math"
	"testing"

	"nmdetect/internal/game"
	"nmdetect/internal/household"
	"nmdetect/internal/rng"
	"nmdetect/internal/solar"
	"nmdetect/internal/tariff"
	"nmdetect/internal/timeseries"
)

func community(t *testing.T, n int) ([]*household.Customer, [][]float64) {
	t.Helper()
	g := household.DefaultGenerator()
	customers, err := g.Generate(n, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	pv, err := household.CommunityPVTraces(customers, solar.DefaultModel(), 1, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	return customers, pv
}

func cfg(t *testing.T, nm bool) game.Config {
	t.Helper()
	q, err := tariff.NewQuadratic(1.5)
	if err != nil {
		t.Fatal(err)
	}
	c := game.DefaultConfig(q, nm)
	c.MaxSweeps = 2
	return c
}

func price24() timeseries.Series {
	p := make(timeseries.Series, 24)
	for h := range p {
		p[h] = 0.06 + 0.04*float64(h%12)/12
	}
	return p
}

func TestNewValidation(t *testing.T) {
	customers, pv := community(t, 5)
	if _, err := New(nil, cfg(t, false), nil, 1); err == nil {
		t.Error("empty community accepted")
	}
	if _, err := New(customers, cfg(t, true), nil, 1); err == nil {
		t.Error("missing pv accepted in NM mode")
	}
	bad := cfg(t, false)
	bad.MaxSweeps = 0
	if _, err := New(customers, bad, nil, 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(customers, cfg(t, true), pv, 1); err != nil {
		t.Error(err)
	}
}

func TestPredictCaches(t *testing.T) {
	customers, _ := community(t, 5)
	p, err := New(customers, cfg(t, false), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	price := price24()
	r1, err := p.Predict(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Predict(context.Background(), price.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical prices not served from cache")
	}
	if len(p.cache) != 1 {
		t.Fatalf("cache size = %d", len(p.cache))
	}
	other := make(timeseries.Series, len(price))
	for h, v := range price {
		other[h] = 2 * v
	}
	if _, err := p.Predict(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if len(p.cache) != 2 {
		t.Fatalf("cache size after second price = %d", len(p.cache))
	}
}

func TestPredictLoadModes(t *testing.T) {
	customers, pv := community(t, 8)
	price := price24()

	blind, err := New(customers, cfg(t, false), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	blindLoad, err := blind.PredictLoad(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	res, err := blind.Predict(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	for h := range blindLoad {
		if blindLoad[h] != res.Load[h] {
			t.Fatal("blind mode must report consumption")
		}
	}

	aware, err := New(customers, cfg(t, true), pv, 7)
	if err != nil {
		t.Fatal(err)
	}
	awareLoad, err := aware.PredictLoad(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	for h, v := range awareLoad {
		if v < 0 {
			t.Fatalf("negative load of record at %d", h)
		}
	}
	if !aware.cfg.NetMetering || blind.cfg.NetMetering {
		t.Fatal("NetMetering mode flags wrong")
	}
	// The load of record is consumption in both modes…
	awareRes, err := aware.Predict(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	for h := range awareLoad {
		if awareLoad[h] != awareRes.Load[h] {
			t.Fatal("NM load of record must be consumption")
		}
	}
	// …while grid demand is reduced below consumption by solar self-use.
	if grid := awareRes.GridDemand; grid.Sum() >= awareRes.Load.Sum() {
		t.Fatalf("NM grid energy %v not below consumption %v", grid.Sum(), awareRes.Load.Sum())
	}
}

func TestPredictPARMatchesLoad(t *testing.T) {
	customers, _ := community(t, 6)
	p, err := New(customers, cfg(t, false), nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	price := price24()
	par, err := p.PredictPAR(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	load, err := p.PredictLoad(context.Background(), price)
	if err != nil {
		t.Fatal(err)
	}
	if par != load.PAR() {
		t.Fatalf("PredictPAR %v != load PAR %v", par, load.PAR())
	}
	if par < 1 {
		t.Fatalf("PAR %v below 1", par)
	}
}

func TestPriceKeyDistinguishes(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for _, tc := range []struct {
		name string
		a, b timeseries.Series
	}{
		{"different values", timeseries.Series{1, 2, 3}, timeseries.Series{1, 2, 3.0000001}},
		{"length", timeseries.Series{}, timeseries.Series{0}},
		{"+0 and -0", timeseries.Series{0}, timeseries.Series{math.Copysign(0, -1)}},
		{"NaN payloads", timeseries.Series{nan1}, timeseries.Series{nan2}},
		{"one-ULP neighbours", timeseries.Series{0.1}, timeseries.Series{math.Nextafter(0.1, 1)}},
	} {
		if priceKey(tc.a) == priceKey(tc.b) {
			t.Errorf("%s: %v and %v share a key", tc.name, tc.a, tc.b)
		}
	}
	for _, s := range []timeseries.Series{{1, 2, 3}, {nan1, 0}, {}} {
		if priceKey(s) != priceKey(s.Clone()) {
			t.Errorf("equal series %v get different keys", s)
		}
	}
}

func TestLoadOfRecordIsConsumption(t *testing.T) {
	res := &game.Result{
		Load:       timeseries.Series{5, 5},
		GridDemand: timeseries.Series{3, -2},
	}
	for _, nm := range []bool{true, false} {
		got := LoadOfRecord(res, nm)
		if got[0] != 5 || got[1] != 5 {
			t.Fatalf("load of record (nm=%v) = %v", nm, got)
		}
	}
	// And it must be a copy, not an alias.
	lr := LoadOfRecord(res, true)
	lr[0] = 99
	if res.Load[0] != 5 {
		t.Fatal("LoadOfRecord aliases the result")
	}
}
