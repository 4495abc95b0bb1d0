// Iterative domain-knowledge building (paper §IV-A): operators start with
// an inaccurate, incomplete diagnosis graph and whittle down the
// unexplained symptoms by drilling into them, spotting overlooked
// signatures, and codifying new rules.
//
// This example replays that loop for the PIM application: it starts from a
// one-rule graph (only configuration changes are known), measures the
// unexplained share, drills into a sample of unexplained adjacency changes
// with the Result Browser to reveal what co-occurs with them, and adds the
// revealed rules in the order a domain expert would — watching the
// unexplained share collapse from ~95% to ~2%, the §III-C.2 end state.
//
//	go run ./examples/knowledge
package main

import (
	"fmt"
	"log"
	"time"

	"grca/internal/apps/pim"
	"grca/internal/browser"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func main() {
	dataset, err := simnet.Generate(simnet.Config{
		Seed: 8, PoPs: 4, PERsPerPoP: 2, SessionsPerPER: 10,
		MVPNFraction: 0.35, Duration: 14 * 24 * time.Hour, PIMIncidents: 400,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := platform.FromDataset(dataset, platform.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The complete application is our pool of "expert knowledge"; the
	// loop adds its rules one discovery at a time.
	_, full, err := pim.Build()
	if err != nil {
		log.Fatal(err)
	}
	ruleFor := map[string]dgraph.Graph{}
	_ = ruleFor

	// Iteration 0: the developer only knows that provisioning changes
	// drop adjacencies.
	g := dgraph.New(event.PIMAdjacencyChange)
	addRule := func(diagnostic string) {
		for _, r := range full.RulesFor(event.PIMAdjacencyChange) {
			if r.Diagnostic == diagnostic {
				if err := g.Add(r); err != nil {
					log.Fatal(err)
				}
				return
			}
		}
		log.Fatalf("no rule for %q", diagnostic)
	}
	addRule(event.PIMConfigChange)

	discoveryOrder := []string{
		event.InterfaceFlap,
		event.OSPFReconvergence,
		event.RouterCostInOut,
		event.LinkCostOutDown,
		event.LinkCostInUp,
		event.PIMUplinkAdjacencyChange,
	}

	eng := engine.New(sys.Store, sys.View, g)
	fmt.Println("iteration  rules  unexplained  discovery (next rule to add)")
	for round := 0; ; round++ {
		ds := eng.DiagnoseAll()
		unexplained := browser.Filter(ds, browser.Unexplained())
		pct := 100 * float64(len(unexplained)) / float64(len(ds))

		next := ""
		if round < len(discoveryOrder) {
			next = discoveryOrder[round]
		}
		fmt.Printf("%9d  %5d  %10.1f%%  %s\n", round, g.Len(), pct, next)
		if next == "" {
			break
		}

		// "Drill into a sample of unexplained events": sample until one
		// reveals co-located signatures (some events are genuinely
		// unexplainable — the operator moves on to the next).
		if round == 0 {
			for i, diag := range unexplained {
				if i >= 10 {
					break
				}
				related, err := browser.DrillDown(sys.Store, sys.View, diag.Symptom, browser.DrillWindow, browser.DrillLevel)
				if err != nil || len(related) == 0 {
					continue
				}
				fmt.Printf("           drill-down around %s:\n", diag.Symptom)
				for j, in := range related {
					if j >= 4 {
						break
					}
					fmt.Printf("             saw %s\n", in)
				}
				break
			}
		}
		addRule(next)
	}
	fmt.Println("\nEach discovered rule was codified and the tool re-run — the §IV-A loop.")
}
