package pim

import (
	"testing"

	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
)

func TestBuildGraphShape(t *testing.T) {
	lib, g, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Root != event.PIMAdjacencyChange {
		t.Errorf("root = %q", g.Root)
	}
	rules := g.RulesFor(event.PIMAdjacencyChange)
	if len(rules) != 7 {
		t.Fatalf("rules = %d, want 7 (Fig. 6 classes)", len(rules))
	}
	if err := g.Validate(lib); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{event.PIMAdjacencyChange, event.PIMConfigChange,
		event.PIMUplinkAdjacencyChange} {
		if _, ok := lib.Get(name); !ok {
			t.Errorf("missing app event %q (Table VII)", name)
		}
	}
	// Every rule joins at router level: the PE-pair location expands along
	// the backbone path.
	prios := map[string]int{}
	for _, r := range rules {
		if r.JoinLevel != locus.Router {
			t.Errorf("rule %q joins at %v, want router", r.Key(), r.JoinLevel)
		}
		prios[r.Diagnostic] = r.Priority
	}
	// Priority ordering: config change > uplink loss > customer-facing
	// flap > router cost > link cost out > link cost in > reconvergence.
	order := []string{
		event.PIMConfigChange, event.PIMUplinkAdjacencyChange, event.InterfaceFlap,
		event.RouterCostInOut, event.LinkCostOutDown, event.LinkCostInUp,
		event.OSPFReconvergence,
	}
	for i := 1; i < len(order); i++ {
		if prios[order[i-1]] <= prios[order[i]] {
			t.Errorf("priority inversion: %q (%d) vs %q (%d)",
				order[i-1], prios[order[i-1]], order[i], prios[order[i]])
		}
	}
}

func TestDisplayLabelMapping(t *testing.T) {
	cases := map[string]string{
		event.PIMConfigChange:          "PIM Configuration Change (to add and remove customers)",
		event.PIMUplinkAdjacencyChange: "Uplink PIM adjacency loss",
		event.InterfaceFlap:            "interface (customer facing) flap",
		event.OSPFReconvergence:        "OSPF re-convergence",
		event.RouterCostInOut:          event.RouterCostInOut,
		engine.Unknown:                 engine.Unknown,
	}
	for in, want := range cases {
		if got := app.DisplayLabel(in); got != want {
			t.Errorf("DisplayLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
