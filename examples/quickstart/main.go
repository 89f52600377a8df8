// Quickstart: build a small smart-home community, launch a pricing
// cyberattack campaign, and run the net-metering-aware detection pipeline
// end to end — the shortest path through the library's public surface.
package main

import (
	"context"
	"fmt"
	"log"

	"nmdetect/internal/core"
	"nmdetect/internal/detect"
	"nmdetect/internal/scenario"
)

func main() {
	ctx := context.Background()

	// 1. Describe the run as a scenario: a 40-home community, seed 7, a
	//    shorter bootstrap and the fast approximate QMDP policy for the
	//    demo. The spec is plain data — Save it as JSON and any front end
	//    (nmrepro/nmsim/nmdetect -scenario) reruns it bit for bit.
	spec := scenario.Default(40, 7)
	spec.Name = "quickstart"
	spec.Horizon.BootstrapDays = 5
	spec.Detector.Solver = "qmdp"
	fmt.Printf("scenario %s (%s)\n", spec.Name, spec.ID())

	// 2. Lower the spec into the full pipeline: synthetic households with
	//    PV and batteries, a utility pricing process, SVR price
	//    forecasters, calibrated observation channels and a solved POMDP
	//    policy. Everything is seeded — rerunning reproduces this output
	//    exactly.
	opts, err := spec.CoreOptions()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("building pipeline (community, forecasters, POMDP)...")
	sys, err := core.NewSystem(ctx, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated channels: aware fp=%.3f fn=%.3f | blind fp=%.3f fn=%.3f\n",
		sys.AwareFP, sys.AwareFN, sys.BlindFP, sys.BlindFN)

	// 3. Launch the attack campaign: a hacker gradually compromises smart
	//    meters and zeroes the guideline price they see at 16:00-17:00,
	//    luring their schedulable loads into a malicious peak.
	camp, err := sys.NewCampaign()
	if err != nil {
		log.Fatal(err)
	}

	// 4. Monitor two days (48 slots) with the net-metering-aware detector.
	//    Inspect actions repair the fleet.
	results, err := sys.MonitorDays(ctx, sys.Aware, camp, spec.Horizon.MonitorDays, true)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Report what happened.
	inspections := core.TotalInspections(results)
	fmt.Printf("\nmonitored %d slots: observation accuracy %.1f%%, realized PAR %.4f, %d inspections\n",
		len(results)*24, 100*core.ObservationAccuracy(results), core.RealizedPAR(results), inspections)

	for d, day := range results {
		for h := 0; h < 24; h++ {
			if day.Actions[h] == detect.ActionInspect {
				fmt.Printf("  day %d %02d:00 — INSPECT (est. %d meters hacked, truly %d)\n",
					d+1, h, day.Estimated[h], day.TrueHacked[h])
			}
		}
	}
}
