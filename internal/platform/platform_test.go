package platform

import (
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/apps/bgpflap"
	"grca/internal/apps/cdn"
	"grca/internal/apps/pim"
	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/simnet"
)

// integration fixture: a moderate dataset with all three studies enabled.
func generate(t *testing.T, cfg simnet.Config) (*simnet.Dataset, *System) {
	t.Helper()
	d, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := FromDataset(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Collector.Malformed.Count != 0 {
		t.Fatalf("malformed lines: %+v", sys.Collector.Malformed)
	}
	return d, sys
}

func TestBGPFlapPipelineAccuracy(t *testing.T) {
	d, sys := generate(t, simnet.Config{
		Seed: 11, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		Duration: 7 * 24 * time.Hour, BGPFlapIncidents: 250,
	})
	eng, err := bgpflap.NewEngine(sys.Store, sys.View)
	if err != nil {
		t.Fatal(err)
	}
	ds := eng.DiagnoseAll()
	if len(ds) < 230 {
		t.Fatalf("diagnosed %d flaps, want ≈250", len(ds))
	}
	score := ScoreDiagnoses(d.Truth, "bgp", ds, 2*time.Minute)
	if score.Total < 230 {
		t.Fatalf("matched %d of %d", score.Total, len(ds))
	}
	if acc := score.Accuracy(); acc < 0.95 {
		// Dump a few mistakes for debugging.
		shown := 0
		for _, diag := range ds {
			if shown >= 8 {
				break
			}
			where := diag.Symptom.Loc.String()
			for _, tr := range d.Truth {
				if tr.Study == "bgp" && tr.Where == where &&
					absDelta(tr.At, diag.Symptom.Start) <= 2*time.Minute &&
					diag.Primary() != ExpectedLabel(tr.Kind) {
					t.Logf("MISS %s at %v: got %q want %q (label %q)",
						where, diag.Symptom.Start, diag.Primary(), ExpectedLabel(tr.Kind), diag.Label())
					shown++
					break
				}
			}
		}
		t.Errorf("BGP diagnosis accuracy = %.3f, want ≥ 0.95", acc)
	}
	assertExact(t, score, Score{Total: 250, Correct: 250}, ds, map[string]int{
		"CPU high (spike)": 16, "Customer reset session": 5, "Interface flap": 160,
		"Line protocol flap": 28, "SONET restoration": 1, "Unknown": 28, "eBGP HTE": 12,
	})
}

// assertExact pins what HEAD computes over a fixed corpus: the score (so
// the exact accuracy) and the breakdown, label → count of primaries. A
// change that moves either is a reviewed edit of the literals here.
func assertExact(t *testing.T, score, want Score, ds []engine.Diagnosis, breakdown map[string]int) {
	t.Helper()
	if score != want {
		t.Errorf("score = %+v (accuracy %.4f), want %+v", score, score.Accuracy(), want)
	}
	got := browser.CountPrimary(ds, nil)
	for label, n := range breakdown {
		if got[label] != n {
			t.Errorf("breakdown[%q] = %d, want %d", label, got[label], n)
		}
	}
	for label, n := range got {
		if _, ok := breakdown[label]; !ok {
			t.Errorf("breakdown[%q] = %d, want no such row", label, n)
		}
	}
}

func TestCDNPipelineAccuracy(t *testing.T) {
	d, sys := generate(t, simnet.Config{
		Seed: 13, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 6,
		Duration: 7 * 24 * time.Hour, CDNIncidents: 150,
	})
	eng, err := cdn.NewEngine(sys.Store, sys.View)
	if err != nil {
		t.Fatal(err)
	}
	ds := eng.DiagnoseAll()
	if len(ds) < 130 {
		t.Fatalf("diagnosed %d RTT degradations, want ≈150", len(ds))
	}
	score := ScoreDiagnoses(d.Truth, "cdn", ds, 10*time.Minute)
	if score.Total < 130 {
		t.Fatalf("matched %d of %d (unmatched %d)", score.Total, len(ds), score.Unmatched)
	}
	if acc := score.Accuracy(); acc < 0.9 {
		shown := 0
		for _, diag := range ds {
			if shown >= 8 {
				break
			}
			where := diag.Symptom.Loc.String()
			for _, tr := range d.Truth {
				if tr.Study == "cdn" && tr.Where == where &&
					absDelta(tr.At, diag.Symptom.Start) <= 10*time.Minute &&
					diag.Primary() != ExpectedLabel(tr.Kind) {
					t.Logf("MISS %s at %v: got %q want %q", where, diag.Symptom.Start, diag.Primary(), ExpectedLabel(tr.Kind))
					shown++
					break
				}
			}
		}
		t.Errorf("CDN diagnosis accuracy = %.3f, want ≥ 0.9", acc)
	}
	assertExact(t, score, Score{Total: 150, Correct: 150}, ds, map[string]int{
		"BGP egress change": 9, "CDN assignment policy change": 6, "Interface flap": 7,
		"Link congestion alarm": 5, "Link loss alarm": 5, "OSPF re-convergence event": 6, "Unknown": 112,
	})
}

func TestPIMPipelineAccuracy(t *testing.T) {
	d, sys := generate(t, simnet.Config{
		Seed: 17, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		MVPNFraction: 0.4, Duration: 7 * 24 * time.Hour, PIMIncidents: 150,
	})
	eng, err := pim.NewEngine(sys.Store, sys.View)
	if err != nil {
		t.Fatal(err)
	}
	ds := eng.DiagnoseAll()
	if len(ds) < 130 {
		t.Fatalf("diagnosed %d adjacency changes, want ≈150", len(ds))
	}
	score := ScoreDiagnoses(d.Truth, "pim", ds, 2*time.Minute)
	if score.Total < 130 {
		t.Fatalf("matched %d of %d (unmatched %d)", score.Total, len(ds), score.Unmatched)
	}
	if acc := score.Accuracy(); acc < 0.9 {
		shown := 0
		for _, diag := range ds {
			if shown >= 10 {
				break
			}
			where := diag.Symptom.Loc.String()
			for _, tr := range d.Truth {
				if tr.Study == "pim" && tr.Where == where &&
					absDelta(tr.At, diag.Symptom.Start) <= 2*time.Minute &&
					diag.Primary() != ExpectedLabel(tr.Kind) {
					t.Logf("MISS %s at %v: got %q want %q", where, diag.Symptom.Start, diag.Primary(), ExpectedLabel(tr.Kind))
					shown++
					break
				}
			}
		}
		t.Errorf("PIM diagnosis accuracy = %.3f, want ≥ 0.9", acc)
	}
	// The paper classifies >98% of PIM events; at minimum the unknown
	// share must stay small.
	b := engine.Breakdown(ds)
	if b[engine.Unknown] > 10 {
		t.Errorf("unknown share = %.2f%%, want small (paper: <2%%)", b[engine.Unknown])
	}
	assertExact(t, score, Score{Total: 150, Correct: 150}, ds, map[string]int{
		"Interface flap": 104, "Link Cost In/Up": 1, "Link Cost Out/Down": 2, "OSPF re-convergence event": 16,
		"PIM Configuration change": 6, "Router Cost In/Out": 15, "Unknown": 3, "Uplink PIM adjacency change": 3,
	})
}

func TestDisplayLabels(t *testing.T) {
	cdnApp, pimApp, bgpApp := apps.MustGet("cdn"), apps.MustGet("pim"), apps.MustGet("bgpflap")
	if got := cdnApp.DisplayLabel(engine.Unknown); got != "Outside of our network (Unknown)" {
		t.Errorf("cdn unknown label = %q", got)
	}
	if got := pimApp.DisplayLabel(event.InterfaceFlap); got != "interface (customer facing) flap" {
		t.Errorf("pim iface label = %q", got)
	}
	if got := bgpApp.DisplayLabel(event.EBGPHoldTimerExpired); got != "eBGP HTE (due to unknown reasons)" {
		t.Errorf("bgp HTE label = %q", got)
	}
	if got := bgpApp.DisplayLabel(event.InterfaceFlap); got != event.InterfaceFlap {
		t.Errorf("bgp passthrough label = %q", got)
	}
}
