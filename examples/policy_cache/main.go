// Policy cache: demonstrates separating the expensive offline phase from
// online monitoring. The detection POMDP is calibrated and solved once, the
// policy is serialized to JSON, and a "fresh deployment" reloads it and
// monitors without re-solving — the workflow a production rollout would use
// for a fleet of identical neighborhoods.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"nmdetect/internal/detect"
	"nmdetect/internal/pomdp"
)

func main() {
	const meters = 200

	// --- Offline phase: calibrate the model, solve the policy. ---
	params := detect.DefaultModelParams(meters, 0.01, 0.35)
	fmt.Printf("calibrating detection POMDP for %d meters (%d states)...\n",
		meters, params.Buckets.NumBuckets())
	model, err := detect.BuildModel(params)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := pomdp.SolvePBVI(context.Background(), model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved: %d alpha vectors\n", policy.NumAlphaVectors())

	// Serialize (to a buffer here; a deployment would write a file).
	var blob bytes.Buffer
	if err := policy.Save(&blob); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized policy: %d bytes of JSON\n", blob.Len())

	// --- Online phase: a fresh process loads the policy and monitors. ---
	loaded, err := pomdp.LoadPolicy(&blob, model.NumStates)
	if err != nil {
		log.Fatal(err)
	}
	monitor, err := detect.NewLongTerm(model, loaded, params.Buckets)
	if err != nil {
		log.Fatal(err)
	}

	// Feed a synthetic estimated-hacked-count stream: quiet, then a growing
	// intrusion, then quiet again after the repair.
	stream := []int{0, 0, 0, 1, 0, 4, 9, 15, 28, 41, 55, 0, 0, 0}
	fmt.Println("\nslot  est-hacked  belief-bucket  action")
	for slot, est := range stream {
		action, _ := monitor.Step(est)
		glyph := "continue"
		if action == detect.ActionInspect {
			glyph = "INSPECT"
		}
		fmt.Printf("%4d  %10d  %13d  %s\n", slot, est, monitor.MAPBucket(), glyph)
	}
	fmt.Printf("\n%d inspections over %d slots\n", monitor.Inspections, monitor.Steps)

	// Sanity: the loaded policy behaves identically to the original.
	for s := 0; s < model.NumStates; s++ {
		b := pomdp.PointBelief(model.NumStates, s)
		if loaded.Action(b) != policy.Action(b) {
			log.Fatalf("loaded policy diverges at state %d", s)
		}
	}
	fmt.Println("loaded policy matches the original on every corner belief")
}
