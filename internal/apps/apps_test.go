package apps

import "testing"

// TestPresentation pins what each packaged application shows an operator:
// the registry order (streamed diagnoses of one event are reported in
// it), name, study, breakdown title, and every display-label pair — the
// paper tables' row names — plus labels that pass through unrenamed.
func TestPresentation(t *testing.T) {
	want := []struct {
		name, study, title string
		labels             map[string]string // raw → shown; equal means pass-through
	}{
		{"bgpflap", "bgp", "Root Cause Breakdown of BGP Flaps (cf. Table IV)", map[string]string{
			"eBGP HTE":       "eBGP HTE (due to unknown reasons)",
			"Interface flap": "Interface flap",
			"Unknown":        "Unknown",
		}},
		{"cdn", "cdn", "Root Cause Breakdown of End-to-End RTT Degradations (cf. Table VI)", map[string]string{
			"Unknown":                      "Outside of our network (Unknown)",
			"BGP egress change":            "Egress Change due to Inter-domain routing change",
			"Link congestion alarm":        "Link Congestions",
			"Link loss alarm":              "Link Loss",
			"OSPF re-convergence event":    "OSPF re-convergence",
			"CDN assignment policy change": "CDN assignment policy change",
			"Interface flap":               "Interface flap",
		}},
		{"pim", "pim", "Root Cause Breakdown of PIM Adjacency Losses (cf. Table VIII)", map[string]string{
			"PIM Configuration change":    "PIM Configuration Change (to add and remove customers)",
			"Uplink PIM adjacency change": "Uplink PIM adjacency loss",
			"Interface flap":              "interface (customer facing) flap",
			"OSPF re-convergence event":   "OSPF re-convergence",
			"Router Cost In/Out":          "Router Cost In/Out",
			"Unknown":                     "Unknown",
		}},
		{"backbone", "backbone", "Root Cause Breakdown of In-Network Packet Loss (§I scenario)", map[string]string{
			"Link congestion alarm":     "Link congestion (augment capacity on the path)",
			"OSPF re-convergence event": "OSPF re-convergence (prioritize MPLS fast reroute)",
			"Link loss alarm":           "Link loss / corrupted packets (inspect layer 1)",
			"Unknown":                   "Unknown",
		}},
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d applications, want %d", len(all), len(want))
	}
	for i, w := range want {
		a := all[i]
		if a.Name != w.name || a.Study != w.study {
			t.Errorf("application %d = (%q, %q), want (%q, %q)", i, a.Name, a.Study, w.name, w.study)
		}
		if got, ok := Get(w.name); !ok || got.Spec != a.Spec {
			t.Errorf("Get(%q) does not return the registry entry", w.name)
		}
		if a.Title() != w.title {
			t.Errorf("%s title = %q, want %q", w.name, a.Title(), w.title)
		}
		renamed := 0
		for raw, shown := range w.labels {
			if got := a.DisplayLabel(raw); got != shown {
				t.Errorf("%s DisplayLabel(%q) = %q, want %q", w.name, raw, got, shown)
			}
			if raw != shown {
				renamed++
			}
		}
		if len(a.Spec.Labels) != renamed {
			t.Errorf("%s spec renames %d labels, the table pins %d", w.name, len(a.Spec.Labels), renamed)
		}
		if _, _, err := a.Build(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestLoad: every shipped spec parses; a name with no file is an error.
func TestLoad(t *testing.T) {
	for _, name := range []string{"bgpflap", "cdn", "cdnthroughput", "pim", "backbone"} {
		if _, err := Load(name, ""); err != nil {
			t.Error(err)
		}
	}
	if _, err := Load("nosuchapp", ""); err == nil {
		t.Error("Load of a missing spec succeeded")
	}
}

// TestRootsDistinct: no two packaged applications diagnose the same root
// symptom. The server attributes each streamed diagnosis, and a drill-down
// without app=, to an application by its symptom's name.
func TestRootsDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, a := range All() {
		_, g, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[g.Root]; dup {
			t.Errorf("%s and %s share the root symptom %q", other, a.Name, g.Root)
		}
		seen[g.Root] = a.Name
	}
}
