// In-network packet-loss study (the paper's §I motivating scenario):
// probe traffic between PoPs reports sporadic losses over a month; the
// aggregate root-cause breakdown drives the engineering decision — link
// congestion calls for capacity augmentation, routing re-convergence for
// MPLS fast reroute.
//
//	go run ./examples/backbone
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"grca/internal/apps"
	"grca/internal/apps/backbone"
	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func main() {
	dataset, err := simnet.Generate(simnet.Config{
		Seed:              21,
		PoPs:              4,
		PERsPerPoP:        2,
		SessionsPerPER:    4,
		Duration:          28 * 24 * time.Hour,
		BackboneIncidents: 300,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := platform.FromDataset(dataset, platform.Options{})
	if err != nil {
		log.Fatal(err)
	}
	app := apps.MustGet("backbone")
	eng, err := app.NewEngine(sys.Store, sys.View)
	if err != nil {
		log.Fatal(err)
	}
	diagnoses := eng.DiagnoseAll()

	rows := browser.Breakdown(diagnoses, app.DisplayLabel)
	if err := browser.WriteTable(os.Stdout, app.Title(), rows); err != nil {
		log.Fatal(err)
	}
	score := platform.ScoreDiagnoses(dataset.Truth, app.Study, diagnoses, 10*time.Minute)
	fmt.Printf("\n%d loss events over %d probe pairs; accuracy %.1f%%\n",
		len(diagnoses), len(dataset.ProbePairs), 100*score.Accuracy())
	fmt.Printf("\nengineering decision: %s\n", backbone.Recommend(engine.Breakdown(diagnoses)))
}
