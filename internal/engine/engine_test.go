package engine

import (
	"strings"
	"testing"
	"time"

	"grca/internal/dgraph"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/store"
	"grca/internal/temporal"
	"grca/internal/testnet"
)

// fixture assembles a miniature BGP-flap application over the testnet:
//
//	eBGP flap ← Interface flap (180) ← SONET restoration (190)
//	eBGP flap ← CPU high (spike) (20)
//	eBGP flap ← Customer reset session (200)
type fixture struct {
	net    *testnet.Net
	st     store.Store
	eng    *Engine
	adjLoc locus.Location // the eBGP session location on chi-per1
	ifLoc  locus.Location // its attachment interface
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := testnet.Build(t.Fatalf)
	ifc, ok := n.Topo.InterfaceByName("chi-per1", "to-custB")
	if !ok {
		t.Fatal("fixture interface missing")
	}
	g := dgraph.New(event.EBGPFlap)
	flapRule := temporal.Rule{
		Symptom:    temporal.Expansion{Option: temporal.StartStart, Left: 180 * time.Second, Right: dgraph.SyslogFuzz},
		Diagnostic: dgraph.Syslog5,
	}
	add := func(r dgraph.Rule) {
		t.Helper()
		if err := g.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	add(dgraph.Rule{Symptom: event.EBGPFlap, Diagnostic: event.InterfaceFlap,
		Temporal: flapRule, JoinLevel: locus.Interface, Priority: 180})
	add(dgraph.Rule{Symptom: event.EBGPFlap, Diagnostic: event.CPUHighSpike,
		Temporal: flapRule, JoinLevel: locus.Router, Priority: 20})
	add(dgraph.Rule{Symptom: event.EBGPFlap, Diagnostic: event.CustomerResetSession,
		Temporal:  temporal.Rule{Symptom: dgraph.Syslog5, Diagnostic: dgraph.Syslog5},
		JoinLevel: locus.RouterNeighbor, Priority: 200})
	restore := dgraph.Knowledge().MustFind(event.InterfaceFlap, event.SONETRestoration)
	restore.Priority = 190
	add(restore)

	st := store.New()
	return &fixture{
		net:    n,
		st:     st,
		eng:    New(st, n.View, g),
		adjLoc: locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String()),
		ifLoc:  locus.Between(locus.Interface, "chi-per1", "to-custB"),
	}
}

func (f *fixture) at(sec int) time.Time { return testnet.T0.Add(time.Duration(sec) * time.Second) }

func (f *fixture) add(name string, startSec, durSec int, loc locus.Location) *event.Instance {
	st := f.at(startSec)
	return f.st.Add(event.Instance{Name: name, Start: st, End: st.Add(time.Duration(durSec) * time.Second), Loc: loc})
}

func (f *fixture) symptom(sec int) *event.Instance {
	return f.add(event.EBGPFlap, sec, 60, f.adjLoc)
}

func TestDiagnoseUnknown(t *testing.T) {
	f := newFixture(t)
	d := f.eng.Diagnose(f.symptom(1000))
	if d.Label() != Unknown || d.Primary() != Unknown {
		t.Errorf("label = %q, want Unknown", d.Label())
	}
	if len(d.Root.Children) != 0 {
		t.Error("evidence found where none exists")
	}
}

func TestDiagnoseInterfaceFlap(t *testing.T) {
	f := newFixture(t)
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	d := f.eng.Diagnose(f.symptom(1000))
	if d.Primary() != event.InterfaceFlap {
		t.Fatalf("primary = %q, want interface flap (tree: %+v)", d.Primary(), d.Root)
	}
	if len(d.Causes) != 1 || d.Causes[0].Priority != 180 {
		t.Errorf("causes = %+v", d.Causes)
	}
}

func TestDiagnoseDeepestCauseWins(t *testing.T) {
	f := newFixture(t)
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.add(event.SONETRestoration, 899, 2, locus.At(locus.Layer1Device, "sonet-chi-per1-a"))
	f.add(event.CPUHighSpike, 950, 5, locus.At(locus.Router, "chi-per1"))
	d := f.eng.Diagnose(f.symptom(1000))
	if d.Primary() != event.SONETRestoration {
		t.Fatalf("primary = %q, want SONET restoration", d.Primary())
	}
	// The chain must run symptom → interface flap → restoration.
	if got := d.Causes[0].Chain; len(got) != 2 || got[0] != event.InterfaceFlap || got[1] != event.SONETRestoration {
		t.Errorf("chain = %v", got)
	}
}

// TestPaperPriorityExample reproduces §III-A.1: a BGP flap joining both a
// high-CPU event and a layer flap is attributed to the flap because its
// edge priority (180) beats CPU's.
func TestPaperPriorityExample(t *testing.T) {
	f := newFixture(t)
	f.add(event.CPUHighSpike, 950, 5, locus.At(locus.Router, "chi-per1"))
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	d := f.eng.Diagnose(f.symptom(1000))
	if d.Primary() != event.InterfaceFlap {
		t.Fatalf("primary = %q, want interface flap over CPU", d.Primary())
	}
}

func TestSpatialDiscrimination(t *testing.T) {
	f := newFixture(t)
	// A flap on a *different* interface of the same router must not join
	// at Interface level.
	f.add(event.InterfaceFlap, 900, 1, locus.Between(locus.Interface, "chi-per1", "to-chi-cr1"))
	// CPU spike on a different router must not join at Router level.
	f.add(event.CPUHighSpike, 950, 5, locus.At(locus.Router, "nyc-per1"))
	d := f.eng.Diagnose(f.symptom(1000))
	if d.Primary() != Unknown {
		t.Fatalf("primary = %q, want Unknown (evidence is spatially unrelated)", d.Primary())
	}
}

func TestTemporalDiscrimination(t *testing.T) {
	f := newFixture(t)
	// Interface flap 10 minutes before the symptom start: outside the
	// 180 s hold-timer window.
	f.add(event.InterfaceFlap, 400, 1, f.ifLoc)
	d := f.eng.Diagnose(f.symptom(1000))
	if d.Primary() != Unknown {
		t.Fatalf("primary = %q, want Unknown (evidence too old)", d.Primary())
	}
}

func TestJointCausesOnTie(t *testing.T) {
	f := newFixture(t)
	// Two distinct causes with equal priority: rig customer reset (200)
	// against a second rule also at 200.
	g := f.eng.Graph
	r := dgraph.Rule{Symptom: event.EBGPFlap, Diagnostic: event.RouterReboot,
		Temporal:  temporal.Rule{Symptom: dgraph.Syslog5, Diagnostic: dgraph.Syslog5},
		JoinLevel: locus.Router, Priority: 200}
	if err := g.Add(r); err != nil {
		t.Fatal(err)
	}
	f.add(event.CustomerResetSession, 1000, 1, f.adjLoc)
	f.add(event.RouterReboot, 1000, 30, locus.At(locus.Router, "chi-per1"))
	d := f.eng.Diagnose(f.symptom(1000))
	if len(d.Causes) != 2 {
		t.Fatalf("causes = %+v, want joint pair", d.Causes)
	}
	if !strings.Contains(d.Label(), " + ") {
		t.Errorf("label = %q, want joint label", d.Label())
	}
}

func TestEvidenceInstancesDeduplicated(t *testing.T) {
	f := newFixture(t)
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.add(event.InterfaceFlap, 950, 1, f.ifLoc)
	d := f.eng.Diagnose(f.symptom(1000))
	if d.Primary() != event.InterfaceFlap {
		t.Fatal(d.Primary())
	}
	if got := len(d.Causes[0].Instances); got != 2 {
		t.Errorf("evidence instances = %d, want 2 distinct flaps", got)
	}
}

func TestDiagnoseAllAndBreakdown(t *testing.T) {
	f := newFixture(t)
	// Three symptoms: one interface-flap-caused, one customer reset, one
	// unknown.
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.symptom(1000)
	f.add(event.CustomerResetSession, 5000, 1, f.adjLoc)
	f.symptom(5000)
	f.symptom(9000)

	ds := f.eng.DiagnoseAll()
	if len(ds) != 3 {
		t.Fatalf("diagnosed %d symptoms", len(ds))
	}
	b := Breakdown(ds)
	for _, want := range []string{event.InterfaceFlap, event.CustomerResetSession, Unknown} {
		if b[want] < 33 || b[want] > 34 {
			t.Errorf("breakdown[%q] = %.2f, want ≈33.3", want, b[want])
		}
	}
	if Breakdown(nil) != nil {
		t.Error("empty breakdown should be nil")
	}
}

func TestWarningsOnUnmodeledLocation(t *testing.T) {
	f := newFixture(t)
	// A symptom whose neighbor element is neither a router nor an address
	// cannot be expanded; every rule should surface a warning rather than
	// silently joining nothing.
	sym := f.add(event.EBGPFlap, 1000, 60, locus.Between(locus.RouterNeighbor, "chi-per1", "garbage"))
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	d := f.eng.Diagnose(sym)
	if len(d.Warnings) == 0 {
		t.Error("expected a warning for unmodeled symptom location")
	}
	if d.Primary() != Unknown {
		t.Errorf("primary = %q", d.Primary())
	}

	// A diagnostic at an unmodeled location likewise warns when its rule
	// requires a real expansion (CPU joins at Router level; a ghost router
	// location is identity-expanded, so use the interface rule instead
	// with a diagnostic needing interface→interface identity — covered
	// above — and a symptom at a real location with a ghost diagnostic
	// needing lookup via the restoration rule's Layer1 level).
	f2 := newFixture(t)
	f2.add(event.InterfaceFlap, 900, 1, locus.Between(locus.Interface, "chi-per1", "ghost-if"))
	// The interface flap at a ghost interface joins nothing at Interface
	// level (identity on both sides, simply unequal) — no warning, no join.
	d2 := f2.eng.Diagnose(f2.symptom(1000))
	if d2.Primary() != Unknown {
		t.Errorf("ghost diagnostic joined: %q", d2.Primary())
	}
}

func TestElapsedRecorded(t *testing.T) {
	f := newFixture(t)
	d := f.eng.Diagnose(f.symptom(1000))
	if d.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestMaxDepthBounds(t *testing.T) {
	f := newFixture(t)
	depth := maxDepth
	maxDepth = 1
	t.Cleanup(func() { maxDepth = depth })
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.add(event.SONETRestoration, 899, 2, locus.At(locus.Layer1Device, "sonet-chi-per1-a"))
	d := f.eng.Diagnose(f.symptom(1000))
	// Depth 1 stops at the interface flap; restoration is never reached.
	if d.Primary() != event.InterfaceFlap {
		t.Errorf("primary with MaxDepth=1 = %q", d.Primary())
	}
}

func TestNodeWalk(t *testing.T) {
	f := newFixture(t)
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.add(event.SONETRestoration, 899, 2, locus.At(locus.Layer1Device, "sonet-chi-per1-a"))
	d := f.eng.Diagnose(f.symptom(1000))
	var names []string
	d.Root.Walk(func(n *Node) { names = append(names, n.Event) })
	if len(names) != 3 || names[0] != event.EBGPFlap {
		t.Errorf("walk order = %v", names)
	}
}
