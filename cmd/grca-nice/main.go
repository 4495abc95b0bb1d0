// Command grca-nice runs the statistical rule-mining loop of paper §IV-B
// (Fig. 7): it diagnoses every BGP flap with the rule-based engine,
// prefilters the CPU-related flaps — those explained by a hold-timer
// expiry plus a high-CPU signature but no link evidence — and tests their
// time series against every candidate signature series (syslog mnemonics
// and workflow actions) with the NICE circular permutation test.
//
// Run with -all to skip the prefiltering and observe the paper's contrast:
// against the full flap population, the provisioning correlation sinks
// into the noise.
//
// Usage:
//
//	grca-nice -data /tmp/corpus [-all] [-top 15]
package main

import (
	"flag"
	"fmt"
	"os"

	"grca/internal/apps/bgpflap"
	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
)

func main() {
	var (
		data = flag.String("data", "", "dataset bundle directory (required)")
		all  = flag.Bool("all", false, "correlate ALL flaps instead of the CPU-related subset")
		top  = flag.Int("top", 15, "show the top N candidate series")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "grca-nice: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*data, *all, *top); err != nil {
		fmt.Fprintf(os.Stderr, "grca-nice: %v\n", err)
		os.Exit(1)
	}
}

func run(data string, all bool, top int) error {
	bundle, err := platform.Load(data)
	if err != nil {
		return err
	}
	// Generic signature series ("syslog:*", "workflow:*") are the
	// candidate population of the study.
	sys, err := bundle.Assemble(platform.Options{GenericSignatures: true})
	if err != nil {
		return err
	}
	eng, err := bgpflap.NewEngine(sys.Store, sys.View)
	if err != nil {
		return err
	}
	ds := eng.DiagnoseAll()

	subset := ds
	label := "all BGP flaps"
	if !all {
		subset = browser.Filter(ds, cpuRelated)
		label = "CPU-related BGP flaps (prefiltered by the RCA engine)"
	}
	fmt.Printf("%d of %d flaps selected: %s\n", len(subset), len(ds), label)
	if len(subset) == 0 {
		return fmt.Errorf("no symptoms selected")
	}

	var symptoms []*event.Instance
	for _, d := range subset {
		symptoms = append(symptoms, d.Symptom)
	}
	m := browser.Miner{Store: sys.Store}
	candidates := m.CandidateSeries("syslog:", "workflow:")
	fmt.Printf("testing %d candidate series over %v\n", len(candidates), bundle.Duration)

	results, err := m.Mine(symptoms, candidates, bundle.Start, bundle.Start.Add(bundle.Duration))
	if err != nil {
		return err
	}
	sig := browser.Significant(results)
	fmt.Printf("%d series significantly correlated (score > 3σ under circular permutation)\n\n", len(sig))
	fmt.Printf("%-40s %10s %10s %12s\n", "series", "corr", "score", "significant")
	for i, r := range results {
		if i >= top {
			break
		}
		fmt.Printf("%-40s %10.4f %10.2f %12v\n", r.Series, r.Result.Corr, r.Result.Score, r.Result.Significant)
	}
	return nil
}

// cpuRelated implements the paper's prefilter: flaps associated with a
// hold-timer expiry and a high-CPU signature, with no link-failure
// evidence that could explain them.
func cpuRelated(d engine.Diagnosis) bool {
	hasHTE, hasCPU, hasLink := false, false, false
	d.Root.Walk(func(n *engine.Node) {
		switch n.Event {
		case event.EBGPHoldTimerExpired:
			hasHTE = true
		case event.CPUHighSpike, event.CPUHighAverage:
			hasCPU = true
		case event.InterfaceFlap, event.LineProtoFlap,
			event.SONETRestoration, event.OpticalFast, event.OpticalRegular:
			hasLink = true
		}
	})
	return hasHTE && hasCPU && !hasLink
}
