package browser

import (
	"strings"
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/engine"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func corpusForReport(t *testing.T) (*simnet.Dataset, *platform.System, []engine.Diagnosis) {
	t.Helper()
	d, err := simnet.Generate(simnet.Config{
		Seed: 83, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		Duration: 7 * 24 * time.Hour, BGPFlapIncidents: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := apps.MustGet("bgpflap").NewEngine(sys.Store, sys.View)
	if err != nil {
		t.Fatal(err)
	}
	return d, sys, eng.DiagnoseAll()
}

func TestWriteReport(t *testing.T) {
	_, sys, ds := corpusForReport(t)
	var b strings.Builder
	err := WriteReport(&b, sys.Store, ds, ReportOptions{
		Title:   "BGP flap SQM report",
		Display: apps.MustGet("bgpflap").DisplayLabel,
		View:    sys.View,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"BGP flap SQM report",
		"symptoms:  200",
		"Root cause breakdown",
		"Interface flap",
		"Symptom trend (per 24h0m0s)",
		"Unexplained symptoms:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n%s", want, out)
		}
	}
	// Empty population.
	var e strings.Builder
	if err := WriteReport(&e, sys.Store, nil, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "no symptoms") {
		t.Errorf("empty report = %q", e.String())
	}
}
