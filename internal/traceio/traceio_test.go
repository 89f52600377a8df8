package traceio

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"nmdetect/internal/tariff"
)

// TestWriteTraceGolden pins the community-trace bytes cmd/nmsim writes.
func TestWriteTraceGolden(t *testing.T) {
	rows := []Row{
		{Day: 0, Slot: 0, Price: 0.06, Renewable: 0, Load: 40.5, GridDemand: 41.2, Hacked: 0},
		{Day: 0, Slot: 1, Price: 0.0612345, Renewable: 1.25, Load: 38.1, GridDemand: 36.9, Hacked: 3},
		{Day: 1, Slot: 23, Price: 0.055, Renewable: 0, Load: 52.0, GridDemand: 52.0, Hacked: 12},
	}
	const want = "day,slot,price,renewable,load,grid_demand,hacked\n" +
		"0,0,0.06,0,40.5,41.2,0\n" +
		"0,1,0.0612345,1.25,38.1,36.9,3\n" +
		"1,23,0.055,0,52,52,12\n"
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("trace bytes:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceEmptyRows(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "day,slot,price,renewable,load,grid_demand,hacked\n"; got != want {
		t.Fatalf("empty trace = %q, want the header only", got)
	}
}

// TestWriteHistoryGolden pins the training-history bytes nmsim -history
// writes.
func TestWriteHistoryGolden(t *testing.T) {
	var h tariff.History
	h.Append(0.05, 0, 40)
	h.Append(0.051, 1.5, 41.25)
	const want = "slot,price,renewable,demand\n" +
		"0,0.05,0,40\n" +
		"1,0.051,1.5,41.25\n"
	var buf bytes.Buffer
	if err := WriteHistory(&buf, h); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("history bytes:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteHistoryRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHistory(&buf, tariff.History{}); err == nil {
		t.Fatal("empty history accepted")
	}
}

// TestFloatPrecisionSurvives pins the float format: the shortest string that
// parses back to exactly the same float64, never a rounded or padded one.
func TestFloatPrecisionSurvives(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0.123456, "0.123456"},
		{99.000001, "99.000001"},
		{0.30000000000000004, "0.30000000000000004"},
		{math.Nextafter(1, 2), "1.0000000000000002"},
		{1e-7, "1e-07"},
		{-2.5e21, "-2.5e+21"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, []Row{{Price: c.v}}); err != nil {
			t.Fatal(err)
		}
		_, row, _ := strings.Cut(buf.String(), "\n")
		field := strings.Split(row, ",")[2]
		if field != c.want {
			t.Errorf("%v written as %q, want %q", c.v, field, c.want)
		}
		if back, err := strconv.ParseFloat(field, 64); err != nil || back != c.v {
			t.Errorf("%q parses back to %v (%v), want %v", field, back, err, c.v)
		}
	}
}
