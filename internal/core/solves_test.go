package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nmdetect/internal/community"
	"nmdetect/internal/obs"
)

// countSolves runs step with an event sink on its context and returns the
// number of game solves it ran (game.solve spans; the worlds here are flat,
// so there are no per-shard inner solves).
func countSolves(t *testing.T, step func(ctx context.Context) error) int {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	if err := step(obs.With(context.Background(), sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return strings.Count(buf.String(), `"name":"game.solve"`)
}

// TestSolvesPerDay pins how many game solves a monitored day costs. The
// engine solves each distinct (model, price, PV rows) once per day, so:
//   - the first monitored day after NewSystem is its calibration day, whose
//     solves calibration already ran: 0;
//   - a later day with an exact PV forecast solves the published price once
//     for both the engine and the aware kit, plus the attacked price: 2;
//   - with a noisy forecast the kit's expected solve differs: 3;
//   - the blind kit's calibration right after the aware kit's reuses the
//     clean and attacked solves and runs only its own expected solve: 1.
func TestSolvesPerDay(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sigma      float64
		later, cal int
	}{
		{"exact forecast", 0, 2, 2},
		{"noisy forecast", 0.05, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOptions(8, 5)
			opts.Community.SolarForecastSigma = tc.sigma
			sys, err := NewSystem(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			camp, err := sys.NewCampaign()
			if err != nil {
				t.Fatal(err)
			}
			r, err := sys.NewRunner(sys.Aware, camp, true, "", 1)
			if err != nil {
				t.Fatal(err)
			}
			if n := countSolves(t, r.StepDay); n != 0 {
				t.Errorf("first monitored day ran %d solves, want 0", n)
			}
			if n := countSolves(t, r.StepDay); n != tc.later {
				t.Errorf("second monitored day ran %d solves, want %d", n, tc.later)
			}
			calibrate := func(kit *community.DetectorKit) func(ctx context.Context) error {
				return func(ctx context.Context) error {
					_, _, err := sys.Engine.ChannelRates(ctx, kit, opts.CalibFrac, opts.Attack)
					return err
				}
			}
			if n := countSolves(t, calibrate(sys.Aware)); n != tc.cal {
				t.Errorf("aware calibration ran %d solves, want %d", n, tc.cal)
			}
			if n := countSolves(t, calibrate(sys.Blind)); n != 1 {
				t.Errorf("blind calibration after the aware one ran %d solves, want 1", n)
			}
			if n := countSolves(t, r.StepDay); n != 0 {
				t.Errorf("monitored day after its calibration ran %d solves, want 0", n)
			}
		})
	}
}
