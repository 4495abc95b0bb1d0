package browser

import (
	"strings"
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
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

// TestCalibrateMargins recovers the BGP hold timer from the lag
// distribution between eBGP flaps and interface flaps — the data-driven
// margin setting of §VI.
func TestCalibrateMargins(t *testing.T) {
	_, sys, _ := corpusForReport(t)
	first, last, _ := sys.Store.Span()
	m := Miner{Store: sys.Store}
	s, err := m.CalibrateMargins(sys.View, locus.Interface,
		event.EBGPFlap, event.InterfaceFlap, 10*time.Minute, first, last)
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples < 50 {
		t.Fatalf("samples = %d", s.Samples)
	}
	// Half the cascades take the fast-fallover path (lead ≈ 1 s), half
	// the hold-timer path (lead 180 s): the 99th-percentile lead must
	// cover the hold timer, and the suggested expansion must cover the
	// app's hand-written 185 s margin.
	if s.Left < 175*time.Second || s.Left > 200*time.Second {
		t.Errorf("calibrated left margin = %v, want ≈180s (the hold timer)", s.Left)
	}
	exp := s.Expansion(dgraph.SyslogFuzz)
	if exp.Left < 180*time.Second {
		t.Errorf("expansion left = %v", exp.Left)
	}
	if exp.Option.String() != "start/start" {
		t.Errorf("expansion option = %v", exp.Option)
	}
	// Unrelated pairs cannot be calibrated... the CPU spike series exists
	// but only co-occurs for its own incidents; an absent event errors.
	if _, err := m.CalibrateMargins(nil, locus.Interface,
		event.EBGPFlap, "no-such-event", time.Minute, first, last); err == nil {
		t.Error("calibration against absent series accepted")
	}
}
