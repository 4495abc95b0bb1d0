package browser

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/store"
	"grca/internal/testnet"
)

var t0 = testnet.T0

func diag(label string, startMin int) engine.Diagnosis {
	sym := &event.Instance{Name: "sym", Start: t0.Add(time.Duration(startMin) * time.Minute),
		End: t0.Add(time.Duration(startMin) * time.Minute)}
	d := engine.Diagnosis{Symptom: sym, Root: &engine.Node{Event: "sym", Instance: sym}}
	if label != engine.Unknown {
		d.Causes = []engine.Cause{{Event: label}}
	}
	return d
}

func TestBreakdownAndTable(t *testing.T) {
	ds := []engine.Diagnosis{
		diag("A", 0), diag("A", 1), diag("A", 2),
		diag("B", 3),
		diag(engine.Unknown, 4),
	}
	rows := Breakdown(ds, nil)
	if len(rows) != 3 || rows[0].Label != "A" || rows[0].Count != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Percent != 60 {
		t.Errorf("A percent = %v", rows[0].Percent)
	}
	// Display mapping applied.
	rows = Breakdown(ds, func(s string) string {
		if s == engine.Unknown {
			return "Outside (Unknown)"
		}
		return s
	})
	found := false
	for _, r := range rows {
		if r.Label == "Outside (Unknown)" {
			found = true
		}
	}
	if !found {
		t.Error("display mapping not applied")
	}

	var b strings.Builder
	if err := WriteTable(&b, "Root Cause Breakdown", rows); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Root Cause") || !strings.Contains(out, "60.00%") {
		t.Errorf("table output:\n%s", out)
	}
}

func TestFilterPredicates(t *testing.T) {
	ds := []engine.Diagnosis{diag("A", 0), diag(engine.Unknown, 1), diag("A", 2)}
	if got := Filter(ds, WithPrimary("A")); len(got) != 2 {
		t.Errorf("WithPrimary = %d", len(got))
	}
	if got := Filter(ds, Unexplained()); len(got) != 1 {
		t.Errorf("Unexplained = %d", len(got))
	}
}

func TestTrend(t *testing.T) {
	st := store.New()
	loc := locus.At(locus.Router, "r")
	for _, m := range []int{0, 1, 2, 65, 70, 130} {
		st.Add(event.Instance{Name: "e", Start: t0.Add(time.Duration(m) * time.Minute),
			End: t0.Add(time.Duration(m) * time.Minute), Loc: loc})
	}
	pts := Trend(st, "e", t0, t0.Add(3*time.Hour), time.Hour)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Count != 3 || pts[1].Count != 2 || pts[2].Count != 1 || pts[3].Count != 0 {
		t.Errorf("trend = %+v", pts)
	}
	if Trend(st, "e", t0, t0, time.Hour) != nil {
		t.Error("empty window should be nil")
	}
	if Trend(st, "e", t0, t0.Add(time.Hour), 0) != nil {
		t.Error("zero bin should be nil")
	}
}

func TestTrendDiagnoses(t *testing.T) {
	ds := []engine.Diagnosis{diag("A", 0), diag("A", 61), diag("B", 62)}
	pts := TrendDiagnoses(ds, "A", t0, time.Hour, 2)
	if pts[0].Count != 1 || pts[1].Count != 1 {
		t.Errorf("trend = %+v", pts)
	}
}

func TestDrillDown(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	st := store.New()
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	sym := st.Add(event.Instance{Name: event.EBGPFlap, Start: t0.Add(time.Hour), End: t0.Add(time.Hour),
		Loc: locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())})
	// Related: CPU spike on the same router inside the window.
	st.Add(event.Instance{Name: event.CPUHighSpike, Start: t0.Add(59 * time.Minute), End: t0.Add(59 * time.Minute),
		Loc: locus.At(locus.Router, "chi-per1")})
	// Unrelated in space.
	st.Add(event.Instance{Name: event.CPUHighSpike, Start: t0.Add(time.Hour), End: t0.Add(time.Hour),
		Loc: locus.At(locus.Router, "nyc-per1")})
	// Unrelated in time.
	st.Add(event.Instance{Name: event.RouterReboot, Start: t0.Add(5 * time.Hour), End: t0.Add(5 * time.Hour),
		Loc: locus.At(locus.Router, "chi-per1")})

	got, err := DrillDown(st, n.View, sym, 10*time.Minute, locus.Router)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != event.CPUHighSpike || got[0].Loc.A != "chi-per1" {
		t.Errorf("drill-down = %v", got)
	}
}

// TestDrillDownMemoEqualsUnmemoized: deciding each distinct location once
// per call returns exactly what expanding every candidate does.
func TestDrillDownMemoEqualsUnmemoized(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	st := store.New()
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	locs := []locus.Location{
		locus.At(locus.Router, "chi-per1"), locus.At(locus.Router, "chi-cr1"), locus.At(locus.Router, "nyc-per1"),
		locus.Between(locus.Interface, "chi-per1", "to-custB"), locus.Between(locus.Interface, "nyc-cr1", "to-chi-cr1"),
		locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String()),
		locus.At(locus.Router, "no-such-router"), locus.Between(locus.Interface, "chi-per1", "no-such-port"),
	}
	names := []string{event.CPUHighSpike, event.InterfaceFlap, event.RouterReboot, event.EBGPFlap}
	for i := 0; i < 400; i++ {
		at := t0.Add(time.Duration(i*7%120) * time.Minute)
		st.Add(event.Instance{Name: names[i%len(names)], Start: at, End: at.Add(time.Duration(i%3) * time.Minute), Loc: locs[i%len(locs)]})
	}
	for _, level := range []locus.Type{locus.Router, locus.Interface} {
		for _, sym := range st.All(event.EBGPFlap) {
			if _, err := n.View.Expand(sym.Loc, level, sym.Start); err != nil {
				continue
			}
			got, err := DrillDown(st, n.View, sym, 10*time.Minute, level)
			if err != nil {
				t.Fatal(err)
			}
			symLocs, _ := n.View.Expand(sym.Loc, level, sym.Start)
			var want []*event.Instance
			for _, name := range st.Names() {
				for _, in := range st.Query(name, sym.Start.Add(-10*time.Minute), sym.End.Add(10*time.Minute)) {
					cand, err := n.View.Expand(in.Loc, level, sym.Start)
					if in.ID == sym.ID || err != nil {
						continue
					}
					if slices.ContainsFunc(cand, func(l locus.Location) bool { return slices.Contains(symLocs, l) }) {
						want = append(want, in)
					}
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Start.Before(want[j].Start) })
			sameID := func(a, b *event.Instance) bool { return a.ID == b.ID }
			if len(want) == 0 || !slices.EqualFunc(got, want, sameID) {
				t.Fatalf("level %v, symptom %v: drill-down returned %d events, the un-memoized loop %d", level, sym, len(got), len(want))
			}
		}
	}
}

func TestMiner(t *testing.T) {
	st := store.New()
	loc := locus.At(locus.Router, "r")
	end := t0.Add(48 * time.Hour)
	// Symptom instances at pseudo-random minutes; a correlated series
	// leads each by one minute; an uncorrelated series elsewhere.
	var symptoms []*event.Instance
	minute := 17
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(minute) * time.Minute)
		symptoms = append(symptoms, st.Add(event.Instance{Name: "sym", Start: at, End: at, Loc: loc}))
		st.Add(event.Instance{Name: "workflow:cause", Start: at.Add(-time.Minute), End: at.Add(-time.Minute), Loc: loc})
		st.Add(event.Instance{Name: "workflow:noise", Start: at.Add(time.Duration(137*i%1440) * time.Minute), End: at, Loc: loc})
		minute = (minute*31 + 7) % (48 * 60)
	}
	m := Miner{Store: st}
	cands := m.CandidateSeries("workflow:")
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	results, err := m.Mine(symptoms, cands, t0, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	sig := Significant(results)
	if len(sig) != 1 || sig[0].Series != "workflow:cause" {
		t.Errorf("significant = %+v", sig)
	}
	// Window too short errors.
	if _, err := m.Mine(symptoms, cands, t0, t0.Add(3*time.Minute)); err == nil {
		t.Error("short window accepted")
	}
}
