// Rule mining via statistical correlation (paper §IV-B, Fig. 7): a hidden
// vendor bug makes provisioning activity flap unrelated customer BGP
// sessions through CPU exhaustion. Manual inspection cannot spot it among
// hundreds of ordinary flaps — but prefiltering the flaps by their
// engine-diagnosed root cause ("CPU-related, no link evidence") and running
// the NICE circular-permutation test against every candidate signature
// series surfaces the provisioning correlation, exactly as the interaction
// between the Generic RCA Engine and the Correlation Tester did in the
// paper.
//
//	go run ./examples/rulemining
package main

import (
	"fmt"
	"log"
	"time"

	"grca/internal/apps/bgpflap"
	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func main() {
	dataset, err := simnet.Generate(simnet.Config{
		Seed:                     99,
		PoPs:                     4,
		PERsPerPoP:               2,
		SessionsPerPER:           12,
		Duration:                 21 * 24 * time.Hour,
		BGPFlapIncidents:         700,
		ProvisioningBugIncidents: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Generic signature series ("syslog:*", "workflow:*") are the
	// candidate population.
	sys, err := platform.FromDataset(dataset, platform.Options{GenericSignatures: true})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := bgpflap.NewEngine(sys.Store, sys.View)
	if err != nil {
		log.Fatal(err)
	}
	diagnoses := eng.DiagnoseAll()

	cpuRelated := browser.Filter(diagnoses, func(d engine.Diagnosis) bool {
		hte, cpu, link := false, false, false
		d.Root.Walk(func(n *engine.Node) {
			switch n.Event {
			case event.EBGPHoldTimerExpired:
				hte = true
			case event.CPUHighSpike, event.CPUHighAverage:
				cpu = true
			case event.InterfaceFlap, event.LineProtoFlap:
				link = true
			}
		})
		return hte && cpu && !link
	})
	fmt.Printf("%d flaps total; %d CPU-related after engine prefiltering\n",
		len(diagnoses), len(cpuRelated))

	miner := browser.Miner{Store: sys.Store}
	candidates := miner.CandidateSeries("syslog:", "workflow:")
	window := dataset.Config.Duration

	run := func(label string, ds []engine.Diagnosis) float64 {
		var symptoms []*event.Instance
		for _, d := range ds {
			symptoms = append(symptoms, d.Symptom)
		}
		results, err := miner.Mine(symptoms, candidates,
			dataset.Config.Start, dataset.Config.Start.Add(window))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s — %d candidate series, %d significant; top hits:\n",
			label, len(candidates), len(browser.Significant(results)))
		provScore := 0.0
		for i, r := range results {
			if i < 5 {
				fmt.Printf("  %-42s score %6.2f significant=%v\n",
					r.Series, r.Result.Score, r.Result.Significant)
			}
			if r.Series == "workflow:provision-customer" {
				provScore = r.Result.Score
			}
		}
		return provScore
	}

	pre := run("Prefiltered (CPU-related flaps only)", cpuRelated)
	all := run("Unfiltered (all flaps)", diagnoses)
	fmt.Printf("\nprovisioning-activity correlation score: %.1f prefiltered vs %.1f unfiltered\n", pre, all)
	fmt.Println("=> prefiltering by diagnosed root cause amplifies the hidden signal (Fig. 7)")
}
