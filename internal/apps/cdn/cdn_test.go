package cdn_test

import (
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/apps/cdn"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/simnet"
)

func TestBuildGraphShape(t *testing.T) {
	lib, g, err := cdn.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Root != event.CDNRTTIncrease {
		t.Errorf("root = %q", g.Root)
	}
	rules := g.RulesFor(event.CDNRTTIncrease)
	if len(rules) != 7 {
		t.Fatalf("rules = %d, want 7 (Fig. 5 classes)", len(rules))
	}
	if err := g.Validate(lib); err != nil {
		t.Fatal(err)
	}
	// Application events of Table V present.
	for _, name := range []string{event.CDNRTTIncrease, event.CDNThroughputDrop,
		event.CDNServerIssue, event.CDNPolicyChange} {
		if _, ok := lib.Get(name); !ok {
			t.Errorf("missing app event %q", name)
		}
	}
	// The egress-change rule joins at ingress:destination — the spatial
	// conversion highlighted in §III-B.
	for _, r := range rules {
		if r.Diagnostic == event.BGPEgressChange && r.JoinLevel != locus.IngressDestination {
			t.Errorf("egress rule join level = %v", r.JoinLevel)
		}
		if r.Diagnostic == event.CDNServerIssue && r.JoinLevel != locus.Server {
			t.Errorf("server rule join level = %v", r.JoinLevel)
		}
	}
	// Priorities: inside-network evidence outranks the reconvergence
	// fallback; server issue is the strongest.
	var serverPrio, reconvPrio int
	for _, r := range rules {
		switch r.Diagnostic {
		case event.CDNServerIssue:
			serverPrio = r.Priority
		case event.OSPFReconvergence:
			reconvPrio = r.Priority
		}
	}
	if serverPrio <= reconvPrio {
		t.Errorf("priorities: server %d vs reconvergence %d", serverPrio, reconvPrio)
	}
}

// throughput is examples/specs/cdnthroughput.grca, the registry's cdn
// application rooted at the other Table V symptom. Nothing serves it.
func throughput(t *testing.T) apps.App {
	t.Helper()
	a, err := apps.Load("cdnthroughput", "cdn")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildThroughputVariant(t *testing.T) {
	lib, g, err := throughput(t).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Root != event.CDNThroughputDrop {
		t.Errorf("root = %q", g.Root)
	}
	if got := len(g.RulesFor(event.CDNThroughputDrop)); got != 7 {
		t.Errorf("rules = %d, want 7 (same classes as the RTT graph)", got)
	}
	if err := g.Validate(lib); err != nil {
		t.Fatal(err)
	}
}

// TestThroughputEngineOnCorpus diagnoses the throughput-drop symptoms the
// collector materializes alongside the RTT increases; the same simulated
// degradations (RTT up, throughput down in the same bins) must classify
// identically under both roots.
func TestThroughputEngineOnCorpus(t *testing.T) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 103, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 4,
		Duration: 7 * 24 * time.Hour, CDNIncidents: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := throughput(t).NewEngine(sys.Store, sys.View)
	if err != nil {
		t.Fatal(err)
	}
	ds := eng.DiagnoseAll()
	if len(ds) < 60 {
		t.Fatalf("throughput drops diagnosed = %d, want ≈80", len(ds))
	}
	score := platform.ScoreDiagnoses(d.Truth, "cdn", ds, 10*time.Minute)
	if score.Total < 60 {
		t.Fatalf("matched %d of %d", score.Total, len(ds))
	}
	if acc := score.Accuracy(); acc < 0.9 {
		t.Errorf("throughput diagnosis accuracy = %.3f", acc)
	}
}

func TestDisplayLabelMapping(t *testing.T) {
	app := apps.MustGet("cdn")
	cases := map[string]string{
		engine.Unknown:          "Outside of our network (Unknown)",
		event.BGPEgressChange:   "Egress Change due to Inter-domain routing change",
		event.LinkCongestion:    "Link Congestions",
		event.LinkLoss:          "Link Loss",
		event.OSPFReconvergence: "OSPF re-convergence",
		event.InterfaceFlap:     event.InterfaceFlap, // passthrough
	}
	for in, want := range cases {
		if got := app.DisplayLabel(in); got != want {
			t.Errorf("cdn DisplayLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
