package backbone

import (
	"fmt"
	"testing"
	"time"

	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func TestBuildGraphShape(t *testing.T) {
	lib, g, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Root != event.LossIncrease {
		t.Errorf("root = %q", g.Root)
	}
	if got := len(g.RulesFor(event.LossIncrease)); got != 4 {
		t.Errorf("rules = %d, want 4", got)
	}
	if err := g.Validate(lib); err != nil {
		t.Fatal(err)
	}
}

func TestBackbonePipelineAccuracy(t *testing.T) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 101, PoPs: 4, PERsPerPoP: 2, SessionsPerPER: 4,
		Duration: 14 * 24 * time.Hour, BackboneIncidents: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sys.Store, sys.View)
	if err != nil {
		t.Fatal(err)
	}
	ds := eng.DiagnoseAll()
	if len(ds) < 130 {
		t.Fatalf("diagnosed %d loss events, want ≈150", len(ds))
	}
	score := platform.ScoreDiagnoses(d.Truth, "backbone", ds, 10*time.Minute)
	if score.Total < 130 {
		t.Fatalf("matched %d of %d (unmatched %d)", score.Total, len(ds), score.Unmatched)
	}
	if acc := score.Accuracy(); acc < 0.9 {
		shown := 0
		for _, diag := range ds {
			if shown >= 8 {
				break
			}
			for _, tr := range d.Truth {
				if tr.Study == "backbone" && tr.Where == diag.Symptom.Loc.String() &&
					absd(tr.At, diag.Symptom.Start) <= 10*time.Minute &&
					diag.Primary() != platform.ExpectedLabel(tr.Kind) {
					t.Logf("MISS %s at %v: got %q want %q",
						tr.Where, diag.Symptom.Start, diag.Primary(), platform.ExpectedLabel(tr.Kind))
					shown++
					break
				}
			}
		}
		t.Errorf("backbone diagnosis accuracy = %.3f, want ≥ 0.9", acc)
	}

	// Exactly what HEAD computes over this corpus: the score and the
	// breakdown, label → count of primaries.
	if want := (platform.Score{Total: 150, Correct: 150}); score != want {
		t.Errorf("score = %+v (accuracy %.4f), want %+v", score, score.Accuracy(), want)
	}
	want := map[string]int{"Interface flap": 22, "Link congestion alarm": 53, "Link loss alarm": 15,
		"OSPF re-convergence event": 38, "Unknown": 22}
	if got := browser.CountPrimary(ds, nil); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("breakdown = %v, want %v", got, want)
	}

	// The §I decision: with the default mix congestion dominates.
	b := engine.Breakdown(ds)
	rec := Recommend(b)
	if want := "capacity augmentation"; !contains(rec, want) {
		t.Errorf("recommendation = %q, want mention of %q (breakdown %v)", rec, want, b)
	}
}

func TestRecommend(t *testing.T) {
	if rec := Recommend(map[string]float64{event.OSPFReconvergence: 40, event.LinkCongestion: 10}); !contains(rec, "fast reroute") {
		t.Errorf("reconvergence-dominant recommendation = %q", rec)
	}
	if rec := Recommend(map[string]float64{}); !contains(rec, "no dominant") {
		t.Errorf("empty recommendation = %q", rec)
	}
}

func TestDisplayLabel(t *testing.T) {
	if got := app.DisplayLabel(event.LinkCongestion); !contains(got, "augment capacity") {
		t.Errorf("congestion label = %q", got)
	}
	if got := app.DisplayLabel("Unknown"); got != "Unknown" {
		t.Errorf("passthrough = %q", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func absd(a, b time.Time) time.Duration {
	d := a.Sub(b)
	if d < 0 {
		return -d
	}
	return d
}
