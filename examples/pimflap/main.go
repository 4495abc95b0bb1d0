// PIM adjacency-change study (paper §III-C, Table VIII): simulate two
// weeks of MVPN operation, inject a Table VIII mix of adjacency-change
// causes, run the packaged PIM RCA application, and report the breakdown
// and classification rate (the paper classifies >98% of events).
//
//	go run ./examples/pimflap
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"grca/internal/apps"
	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func main() {
	dataset, err := simnet.Generate(simnet.Config{
		Seed:           3,
		PoPs:           4,
		PERsPerPoP:     2,
		SessionsPerPER: 10,
		MVPNFraction:   0.35,
		Duration:       14 * 24 * time.Hour,
		PIMIncidents:   500,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := platform.FromDataset(dataset, platform.Options{})
	if err != nil {
		log.Fatal(err)
	}
	app := apps.MustGet("pim")
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

	classified := 0
	for _, d := range diagnoses {
		if d.Primary() != engine.Unknown {
			classified++
		}
	}
	score := platform.ScoreDiagnoses(dataset.Truth, app.Study, diagnoses, 2*time.Minute)
	fmt.Printf("\n%d adjacency changes diagnosed in %v; %.1f%% classified (paper: >98%%); accuracy %.1f%%\n",
		len(diagnoses), elapsed.Round(time.Millisecond),
		100*float64(classified)/float64(len(diagnoses)), 100*score.Accuracy())
}
