// CDN service-impairment study (paper §III-B, Table VI): simulate a month
// of end-to-end RTT measurements between client agents and a CDN node,
// degrade them with a Table VI mix of causes (most outside the ISP), run
// the packaged CDN RCA application, and print the breakdown.
//
// This example also shows a single-event drill-down: the engine's evidence
// chain for one diagnosed egress-change degradation, reconstructed from
// historical BGP and OSPF data alone (the paper's peering-failure story).
//
//	go run ./examples/cdnrtt
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"grca/internal/apps"
	"grca/internal/browser"
	"grca/internal/cdnassign"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func main() {
	dataset, err := simnet.Generate(simnet.Config{
		Seed:           7,
		PoPs:           4,
		PERsPerPoP:     2,
		SessionsPerPER: 6,
		Duration:       14 * 24 * time.Hour,
		CDNIncidents:   400,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := platform.FromDataset(dataset, platform.Options{})
	if err != nil {
		log.Fatal(err)
	}
	app := apps.MustGet("cdn")
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
	score := platform.ScoreDiagnoses(dataset.Truth, app.Study, diagnoses, 10*time.Minute)
	fmt.Printf("\n%d degradations diagnosed in %v (%v/event); accuracy %.1f%%\n",
		len(diagnoses), elapsed.Round(time.Millisecond),
		(elapsed / time.Duration(max(1, len(diagnoses)))).Round(time.Microsecond),
		100*score.Accuracy())

	// Drill into the first egress-change diagnosis, then plan the §III-B.2
	// repair: while the network team fixes the failure, the CDN team can
	// move impacted users to the node that is closer under the *new*
	// routing by updating the DNS tables.
	for _, d := range diagnoses {
		if d.Primary() != event.BGPEgressChange {
			continue
		}
		planRepair(dataset, sys, d)
		fmt.Printf("\nExample diagnosis (the paper's peering-failure story):\n")
		fmt.Printf("  symptom: %s\n", d.Symptom)
		var dump func(n *engine.Node, depth int)
		dump = func(n *engine.Node, depth int) {
			for _, c := range n.Children {
				fmt.Printf("  %*s<- %s", depth*2, "", c.Instance)
				if old, new := c.Instance.Attr("old"), c.Instance.Attr("new"); old != "" {
					fmt.Printf("  [egress %s -> %s]", old, new)
				}
				fmt.Println()
				dump(c, depth+1)
			}
		}
		dump(d.Root, 1)
		break
	}
}

// planRepair stands up a second CDN node at the far PoP and asks the
// assignment service whether impacted users should be moved there under
// the post-failure routing.
func planRepair(dataset *simnet.Dataset, sys *platform.System, d engine.Diagnosis) {
	altPoP := dataset.PeerEgresses[1]
	altNode := "cdn-alt"
	sys.View.RegisterServer(altNode+"-s1", altNode, altPoP)
	svc, err := cdnassign.New(sys.View, []cdnassign.Node{
		{Name: dataset.CDNNode, Router: dataset.CDNRouter},
		{Name: altNode, Router: altPoP},
	})
	if err != nil {
		log.Fatal(err)
	}
	before := d.Symptom.Start.Add(-10 * time.Minute)
	after := d.Symptom.Start.Add(time.Minute)
	repairs, err := svc.PlanRepairs(dataset.Agents, before, after)
	if err != nil {
		log.Fatal(err)
	}
	if len(repairs) == 0 {
		fmt.Println("\nDNS repair plan: no agent improves by moving (the detour is symmetric here)")
		return
	}
	fmt.Println("\nDNS repair plan (apply while the network repair is in flight):")
	for _, r := range repairs {
		fmt.Printf("  move %s: %s -> %s (IGP distance saving %d)\n",
			r.Client, r.From.Name, r.To.Name, r.Saving)
	}
}
