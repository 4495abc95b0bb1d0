// Fault-injection accuracy matrix: perturb a simulated corpus with each
// chaos fault class in turn — per-router clock skew, record reordering,
// duplication, mid-line truncation, dropped feeds, delayed delivery —
// re-run the packaged RCA applications over the dirty data, and print how
// far each fault pushed top-cause accuracy off the clean baseline. The
// paper's deployment survived feeds like these (§II-A); here the damage is
// measured against ground truth instead of anecdotes.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"time"

	"grca/internal/chaos"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func main() {
	dataset, err := simnet.Generate(simnet.Config{
		Seed: 12, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		MVPNFraction: 0.4, Duration: 4 * 24 * time.Hour,
		BGPFlapIncidents: 80, CDNIncidents: 40, PIMIncidents: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	bundle := platform.BundleFromDataset(dataset)

	rep, err := chaos.RunMatrix(bundle, chaos.Options{
		Seed: 99,
		Apps: []string{"bgpflap", "cdn", "pim"},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("chaos matrix, injection seed %d (re-run: identical output)\n\n", rep.Seed)
	fmt.Printf("%-12s %-9s %9s %10s %10s\n", "fault", "app", "accuracy", "drop", "detection")
	for _, sc := range rep.Clean {
		fmt.Printf("%-12s %-9s %8.1f%% %10s %9.1f%%\n",
			"(clean)", sc.App, 100*sc.Score.Accuracy, "—", 100*sc.Score.Detection)
	}
	for _, scen := range rep.Scenarios {
		fmt.Println()
		for _, sc := range scen.Apps {
			fmt.Printf("%-12s %-9s %8.1f%% %9.1f%% %9.1f%%\n",
				scen.Fault, sc.App, 100*sc.Score.Accuracy, 100*sc.AccuracyDrop, 100*sc.Score.Detection)
		}
		switch chaos.Fault(scen.Fault) {
		case chaos.FaultTruncate:
			fmt.Printf("             (%d lines arrived malformed and were tallied, not fatal)\n", scen.Malformed)
		case chaos.FaultDropSource:
			fmt.Printf("             (dropped feeds: %v)\n", scen.Dropped)
		case chaos.FaultDelay:
			s := scen.Apps[0].Stream
			fmt.Printf("             (bgpflap stream: %d delivered, %d delayed, %d past grace, %d forced out)\n",
				s.Delivered, s.Delayed, s.Late, s.Forced)
		}
	}

	fmt.Println("\ndocumented per-fault accuracy bounds (enforced by the scenario-matrix tests):")
	for _, f := range chaos.AllFaults() {
		fmt.Printf("  %-12s ≤ %.0f%% drop\n", f, 100*chaos.Bounds[f])
	}
}
