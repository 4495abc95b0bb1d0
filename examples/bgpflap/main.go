// BGP-flap study (paper §III-A, Table IV): simulate a month of customer
// eBGP session flaps across an ISP, run the packaged BGP-flap RCA
// application, and print the root-cause breakdown alongside the injected
// ground truth — the comparison the paper's operators could not make.
//
//	go run ./examples/bgpflap
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"grca/internal/apps"
	"grca/internal/browser"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func main() {
	dataset, err := simnet.Generate(simnet.Config{
		Seed:             2010,
		PoPs:             4,
		PERsPerPoP:       2,
		SessionsPerPER:   12,
		Duration:         14 * 24 * time.Hour,
		BGPFlapIncidents: 800,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := platform.FromDataset(dataset, platform.Options{})
	if err != nil {
		log.Fatal(err)
	}
	app := apps.MustGet("bgpflap")
	eng, err := app.NewEngine(sys.Store, sys.View)
	if err != nil {
		log.Fatal(err)
	}

	began := time.Now()
	diagnoses := eng.DiagnoseAll()
	elapsed := time.Since(began)

	rows := browser.Breakdown(diagnoses, app.DisplayLabel)
	if err := browser.WriteTable(os.Stdout, app.Title(), rows); err != nil {
		log.Fatal(err)
	}

	score := platform.ScoreDiagnoses(dataset.Truth, app.Study, diagnoses, 2*time.Minute)
	fmt.Printf("\n%d flaps diagnosed in %v (%v/event); ground-truth accuracy %.1f%%\n",
		len(diagnoses), elapsed.Round(time.Millisecond),
		(elapsed / time.Duration(len(diagnoses))).Round(time.Microsecond),
		100*score.Accuracy())

	// The injected mix, for comparison with the diagnosed table.
	fmt.Println("\nInjected ground-truth mix:")
	mix := dataset.TruthBreakdown("bgp")
	kinds := make([]string, 0, len(mix))
	for k := range mix {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return mix[kinds[i]] > mix[kinds[j]] })
	for _, k := range kinds {
		fmt.Printf("  %-46s %6.2f%%\n", k, mix[k])
	}
}
