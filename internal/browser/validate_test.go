package browser

import (
	"errors"
	"testing"
	"time"

	"grca/internal/apps/bgpflap"
	"grca/internal/dgraph"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/store"
	"grca/internal/temporal"
)

// TestValidateRuleOnCorpus checks the §II-E workflow on a simulated
// corpus: the real causal rule ("eBGP flap" <- "Interface flap") passes
// the Correlation Tester, while a fabricated rule joining the flaps to an
// unrelated noise signature fails it.
func TestValidateRuleOnCorpus(t *testing.T) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 41, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		Duration: 7 * 24 * time.Hour, BGPFlapIncidents: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.FromDataset(d, platform.Options{GenericSignatures: true})
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := bgpflap.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := Miner{Store: sys.Store}
	from := d.Config.Start
	to := from.Add(d.Config.Duration)

	var flapRule dgraph.Rule
	for _, r := range g.RulesFor(event.EBGPFlap) {
		if r.Diagnostic == event.InterfaceFlap {
			flapRule = r
		}
	}
	v := m.ValidateRule(flapRule, from, to)
	if v.Err != nil {
		t.Fatalf("real rule untestable: %v", v.Err)
	}
	if !v.Result.Significant {
		t.Errorf("real rule failed the correlation test: %+v", v.Result)
	}

	bogus := flapRule
	bogus.Diagnostic = "syslog:NOISE00-5-NOTICE"
	v = m.ValidateRule(bogus, from, to)
	if v.Err != nil {
		t.Fatalf("bogus rule untestable: %v", v.Err)
	}
	if v.Result.Significant {
		t.Errorf("bogus rule passed the correlation test: %+v", v.Result)
	}

	// Full-graph validation: every testable rule of the BGP app that has
	// instances must pass.
	verdicts := m.ValidateGraph(g, from, to)
	if len(verdicts) != g.Len() {
		t.Fatalf("verdicts = %d, want %d", len(verdicts), g.Len())
	}
	for _, v := range verdicts {
		if v.Err != nil {
			continue // e.g. no optical restorations in this corpus
		}
		// A rule backed by a handful of instances cannot reach
		// significance — that is the test working as designed, not a bad
		// rule. Demand significance only where the data can support it.
		if len(sys.Store.All(v.Rule.Diagnostic)) < 5 {
			continue
		}
		if !v.Result.Significant {
			t.Errorf("rule %q failed validation: score %.2f", v.Rule.Key(), v.Result.Score)
		}
	}
}

func TestValidateRuleErrors(t *testing.T) {
	st := store.New()
	m := Miner{Store: st}
	r := dgraph.Rule{Symptom: "a", Diagnostic: "b", JoinLevel: locus.Router,
		Temporal: temporal.Rule{}}
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	// Too-short window: an error, but a *testable* configuration problem,
	// not ErrUntestable.
	if v := m.ValidateRule(r, t0, t0.Add(2*time.Minute)); v.Err == nil {
		t.Error("short window accepted")
	} else if errors.Is(v.Err, ErrUntestable) {
		t.Errorf("short window misclassified as untestable: %v", v.Err)
	}
	// No instances: the sentinel callers branch on.
	if v := m.ValidateRule(r, t0, t0.Add(24*time.Hour)); !errors.Is(v.Err, ErrUntestable) {
		t.Errorf("empty series: got %v, want ErrUntestable", v.Err)
	}
	// One side present only is still untestable.
	st.Add(event.Instance{Name: "a", Start: t0, End: t0, Loc: locus.At(locus.Router, "r")})
	if v := m.ValidateRule(r, t0, t0.Add(24*time.Hour)); !errors.Is(v.Err, ErrUntestable) {
		t.Errorf("half-empty series: got %v, want ErrUntestable", v.Err)
	}
}
