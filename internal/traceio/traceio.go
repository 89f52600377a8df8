// Package traceio writes the simulator's time-series artifacts as CSV, so
// traces produced by cmd/nmsim can be archived and plotted externally.
//
// Two formats are defined:
//
//   - Community trace: one row per (day, slot) with price, renewable
//     generation, community load, grid demand and the hacked-meter count —
//     what cmd/nmsim emits.
//   - History: the (price, renewable, demand) triple the forecasters train
//     on (tariff.History), one row per slot.
package traceio

import (
	"encoding/csv"
	"io"
	"strconv"

	"nmdetect/internal/tariff"
)

// Row is one slot of a community trace.
type Row struct {
	Day, Slot  int
	Price      float64
	Renewable  float64
	Load       float64
	GridDemand float64
	Hacked     int
}

// traceHeader is the community-trace CSV header.
var traceHeader = []string{"day", "slot", "price", "renewable", "load", "grid_demand", "hacked"}

// WriteTrace emits rows as CSV with a header.
func WriteTrace(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(r.Day),
			strconv.Itoa(r.Slot),
			formatFloat(r.Price),
			formatFloat(r.Renewable),
			formatFloat(r.Load),
			formatFloat(r.GridDemand),
			strconv.Itoa(r.Hacked),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// historyHeader is the training-history CSV header.
var historyHeader = []string{"slot", "price", "renewable", "demand"}

// WriteHistory emits a tariff.History as CSV.
func WriteHistory(w io.Writer, h tariff.History) error {
	if err := h.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(historyHeader); err != nil {
		return err
	}
	for t := 0; t < h.Len(); t++ {
		rec := []string{
			strconv.Itoa(t),
			formatFloat(h.Price[t]),
			formatFloat(h.Renewable[t]),
			formatFloat(h.Demand[t]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatFloat uses the shortest representation that parses back to exactly
// the same float64, so a trace loses no precision.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
