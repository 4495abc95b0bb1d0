package bgpflap

import (
	"testing"
	"time"

	"grca/internal/bayes"
	"grca/internal/platform"
	"grca/internal/simnet"
)

// TestBootstrapTraining reproduces the §II-D.2 bootstrap: a Bayesian
// classifier trained on rule-based diagnoses agrees with the rule-based
// verdicts on the bulk of the corpus.
func TestBootstrapTraining(t *testing.T) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 77, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		Duration: 7 * 24 * time.Hour, BGPFlapIncidents: 300,
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
	examples := TrainingSet(ds)
	if len(examples) < 200 {
		t.Fatalf("training set = %d examples", len(examples))
	}
	cfg, err := bayes.Train(examples, bayes.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for _, diag := range ds {
		want := ClassOf(diag.Primary())
		if want == "" {
			continue
		}
		res, err := cfg.Classify(Features(diag))
		if err != nil {
			t.Fatal(err)
		}
		total++
		if res.Best == want {
			agree++
		}
	}
	if acc := float64(agree) / float64(total); acc < 0.9 {
		t.Errorf("trained classifier agreement = %.3f, want ≥ 0.9", acc)
	}
}

func TestClassOfMapping(t *testing.T) {
	if ClassOf("Interface flap") != ClassIface {
		t.Error("interface flap mapping")
	}
	if ClassOf("CPU high (spike)") != ClassCPU {
		t.Error("cpu mapping")
	}
	if ClassOf("Customer reset session") != ClassCustomer {
		t.Error("customer mapping")
	}
	if ClassOf("Unknown") != "" || ClassOf("Router reboot") != "" {
		t.Error("unmapped labels must return empty")
	}
}
