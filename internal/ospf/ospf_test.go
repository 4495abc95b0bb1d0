package ospf

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"grca/internal/netmodel"
)

var t0 = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

// diamond builds:
//
//	    b
//	  /   \
//	a       d --- e(per) --- cust
//	  \   /
//	    c
//
// with all weights 10, so a→d has two equal-cost paths (ECMP).
func diamond(t *testing.T) (*netmodel.Topology, *Sim) {
	t.Helper()
	topo := netmodel.NewTopology()
	names := []string{"a", "b", "c", "d", "e"}
	for i, n := range names {
		role := netmodel.RoleCore
		if n == "e" {
			role = netmodel.RoleProviderEdge
		}
		r := &netmodel.Router{Name: n, PoP: n, Role: role,
			Loopback: netip.MustParseAddr(netip.AddrFrom4([4]byte{10, 255, 0, byte(i + 1)}).String())}
		if err := topo.AddRouter(r); err != nil {
			t.Fatal(err)
		}
		topo.AddCard(r)
	}
	cust := &netmodel.Router{Name: "cust", Role: netmodel.RoleCustomer}
	if err := topo.AddRouter(cust); err != nil {
		t.Fatal(err)
	}
	topo.AddCard(cust)

	sub := 0
	link := func(id, x, y string) {
		rx, ry := topo.Routers[x], topo.Routers[y]
		base := netip.AddrFrom4([4]byte{10, 0, byte(sub >> 6), byte(sub << 2)})
		sub++
		pfx := netip.PrefixFrom(base, 30)
		a1 := base.Next()
		a2 := a1.Next()
		i1, err := topo.AddInterface(rx.Cards[0], "to-"+y, pfx, a1)
		if err != nil {
			t.Fatal(err)
		}
		i2, err := topo.AddInterface(ry.Cards[0], "to-"+x, pfx, a2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := topo.Connect(id, i1, i2); err != nil {
			t.Fatal(err)
		}
	}
	link("ab", "a", "b")
	link("ac", "a", "c")
	link("bd", "b", "d")
	link("cd", "c", "d")
	link("de", "d", "e")
	link("ecust", "e", "cust")

	return topo, New(topo, map[string]int{"ab": 10, "ac": 10, "bd": 10, "cd": 10, "de": 10, "ecust": 10})
}

func TestDistance(t *testing.T) {
	_, sim := diamond(t)
	if d := sim.Distance("a", "d", t0); d != 20 {
		t.Errorf("a→d = %d, want 20", d)
	}
	if d := sim.Distance("a", "a", t0); d != 0 {
		t.Errorf("a→a = %d, want 0", d)
	}
	if d := sim.Distance("a", "e", t0); d != 30 {
		t.Errorf("a→e = %d, want 30", d)
	}
	// Customer routers do not participate in the IGP.
	if d := sim.Distance("a", "cust", t0); d != math.MaxInt {
		t.Errorf("a→cust = %d, want unreachable", d)
	}
}

func TestECMPElements(t *testing.T) {
	_, sim := diamond(t)
	pe, err := sim.Elements("a", "d", t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"a", "b", "c", "d"} {
		if !pe.Routers[r] {
			t.Errorf("router %s missing from ECMP element set", r)
		}
	}
	if pe.Routers["e"] {
		t.Error("router e wrongly on a→d path")
	}
	for _, l := range []string{"ab", "ac", "bd", "cd"} {
		if !pe.Links[l] {
			t.Errorf("link %s missing from ECMP element set", l)
		}
	}
	if pe.Links["de"] {
		t.Error("link de wrongly on a→d path")
	}
}

func TestWeightChangeReroutes(t *testing.T) {
	_, sim := diamond(t)
	t1 := t0.Add(time.Hour)
	// Cost out link bd at t1: the b branch disappears from shortest paths.
	if err := sim.SetWeight(t1, "bd", Infinity); err != nil {
		t.Fatal(err)
	}
	before, err := sim.Elements("a", "d", t1.Add(-time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !before.Routers["b"] {
		t.Error("b should be on path before cost-out")
	}
	after, err := sim.Elements("a", "d", t1.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if after.Routers["b"] || after.Links["ab"] || after.Links["bd"] {
		t.Errorf("b branch should be off path after cost-out: %+v", after)
	}
	if !after.Routers["c"] || !after.Links["cd"] {
		t.Error("c branch missing after cost-out")
	}
}

func TestWeightTimeline(t *testing.T) {
	_, sim := diamond(t)
	t1, t2 := t0.Add(time.Hour), t0.Add(2*time.Hour)
	if err := sim.SetWeight(t1, "ab", 50); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetWeight(t2, "ab", 10); err != nil {
		t.Fatal(err)
	}
	if w := sim.WeightAt("ab", t0); w != 10 {
		t.Errorf("weight before any change = %d", w)
	}
	if w := sim.WeightAt("ab", t1); w != 50 {
		t.Errorf("weight at change instant = %d, want 50", w)
	}
	if w := sim.WeightAt("ab", t1.Add(30*time.Minute)); w != 50 {
		t.Errorf("weight mid-interval = %d, want 50", w)
	}
	if w := sim.WeightAt("ab", t2.Add(time.Minute)); w != 10 {
		t.Errorf("weight after revert = %d, want 10", w)
	}
	if got := len(sim.Changes()); got != 2 {
		t.Errorf("change log length = %d, want 2", got)
	}
	if c := sim.Changes()[0]; c.Old != 10 || c.New != 50 || c.LinkID != "ab" {
		t.Errorf("first change = %+v", c)
	}
}

func TestSetWeightValidation(t *testing.T) {
	_, sim := diamond(t)
	if err := sim.SetWeight(t0, "nope", 10); err == nil {
		t.Error("accepted change for unknown link")
	}
	if err := sim.SetWeight(t0.Add(time.Hour), "ab", 50); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetWeight(t0, "ab", 60); err == nil {
		t.Error("accepted out-of-order change")
	}
	// Identical re-flood is a silent no-op.
	n := len(sim.Changes())
	if err := sim.SetWeight(t0.Add(2*time.Hour), "ab", 50); err != nil {
		t.Fatal(err)
	}
	if len(sim.Changes()) != n {
		t.Error("no-op refresh appended to change log")
	}
}

func TestPathsEnumeration(t *testing.T) {
	_, sim := diamond(t)
	paths, err := sim.Paths("a", "d", t0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2 ECMP paths", paths)
	}
	for _, p := range paths {
		if len(p) != 3 || p[0] != "a" || p[2] != "d" {
			t.Errorf("malformed path %v", p)
		}
	}
	if paths, _ := sim.Paths("a", "d", t0, 1); len(paths) != 1 {
		t.Error("limit not honored")
	}
	if paths, _ := sim.Paths("a", "a", t0, 0); len(paths) != 1 || len(paths[0]) != 1 {
		t.Errorf("self path = %v", paths)
	}
}

func TestElementsErrors(t *testing.T) {
	_, sim := diamond(t)
	if _, err := sim.Elements("nope", "d", t0); err == nil {
		t.Error("unknown src accepted")
	}
	if _, err := sim.Elements("a", "nope", t0); err == nil {
		t.Error("unknown dst accepted")
	}
	// Partition the graph: cost out everything around d.
	t1 := t0.Add(time.Hour)
	for _, l := range []string{"bd", "cd", "de"} {
		if err := sim.SetWeight(t1, l, Infinity); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.Elements("a", "d", t1.Add(time.Second)); err == nil {
		t.Error("unreachable destination accepted")
	}
}

// TestSPFOptimality is a property test: for random weight assignments, the
// distance function satisfies the triangle inequality through any relay and
// every link reported on a shortest path actually lies on one.
func TestSPFOptimality(t *testing.T) {
	topo, _ := diamond(t)
	weightSets := [][]int{
		{1, 1, 1, 1, 1, 1},
		{5, 3, 2, 9, 4, 1},
		{10, 10, 10, 10, 10, 10},
		{7, 1, 1, 7, 3, 2},
		{100, 1, 100, 1, 50, 1},
	}
	ids := []string{"ab", "ac", "bd", "cd", "de", "ecust"}
	routers := []string{"a", "b", "c", "d", "e"}
	for _, ws := range weightSets {
		m := map[string]int{}
		for i, id := range ids {
			m[id] = ws[i]
		}
		sim := New(topo, m)
		for _, x := range routers {
			for _, y := range routers {
				dxy := sim.Distance(x, y, t0)
				for _, z := range routers {
					dxz, dzy := sim.Distance(x, z, t0), sim.Distance(z, y, t0)
					if dxz == math.MaxInt || dzy == math.MaxInt {
						continue
					}
					if dxz+dzy < dxy {
						t.Fatalf("triangle violation: d(%s,%s)=%d > d(%s,%s)+d(%s,%s)=%d (weights %v)",
							x, y, dxy, x, z, z, y, dxz+dzy, ws)
					}
				}
				if x == y || dxy == math.MaxInt {
					continue
				}
				pe, err := sim.Elements(x, y, t0)
				if err != nil {
					t.Fatal(err)
				}
				for id := range pe.Links {
					l := topo.Links[id]
					a, b := l.A.Router.Name, l.B.Router.Name
					w := sim.WeightAt(id, t0)
					ok1 := sim.Distance(x, a, t0)+w+sim.Distance(b, y, t0) == dxy
					ok2 := sim.Distance(x, b, t0)+w+sim.Distance(a, y, t0) == dxy
					if !ok1 && !ok2 {
						t.Fatalf("link %s reported on %s→%s shortest path but is not (weights %v)", id, x, y, ws)
					}
				}
			}
		}
	}
}

func TestDefaultMetric(t *testing.T) {
	topo, _ := diamond(t)
	sim := New(topo, nil) // all defaults
	if w := sim.WeightAt("ab", t0); w != DefaultMetric {
		t.Errorf("default weight = %d", w)
	}
	if w := sim.WeightAt("unknown-link", t0); w != Infinity {
		t.Errorf("unknown link weight = %d, want Infinity", w)
	}
}

// TestEpochsAndSPFMemo pins the routing-epoch contract: EpochAt counts the
// distinct change instants at or before t, no-op refreshes do not open a
// new epoch, and the memoized SPF layer answers identically before and
// after cache fills — including after a change recorded *earlier* than
// already-cached epochs shifts the numbering (generation invalidation).
func TestEpochsAndSPFMemo(t *testing.T) {
	_, s := diamond(t)
	if got := s.EpochAt(t0); got != 0 {
		t.Fatalf("EpochAt before any change = %d, want 0", got)
	}
	if err := s.SetWeight(t0.Add(100*time.Second), "bd", 40); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWeight(t0.Add(200*time.Second), "bd", 10); err != nil {
		t.Fatal(err)
	}
	// Refresh with the identical weight: no new epoch, no new generation.
	gen := s.Clock().Generation()
	if err := s.SetWeight(t0.Add(300*time.Second), "bd", 10); err != nil {
		t.Fatal(err)
	}
	if s.Clock().Generation() != gen || s.Clock().Len() != 2 {
		t.Fatalf("no-op refresh changed epochs/gen: epochs=%d gen=%d", s.Clock().Len(), s.Clock().Generation())
	}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{0, 0}, {99 * time.Second, 0}, {100 * time.Second, 1},
		{150 * time.Second, 1}, {200 * time.Second, 2}, {10 * time.Hour, 2},
	} {
		if got := s.EpochAt(t0.Add(c.at)); got != c.want {
			t.Errorf("EpochAt(t0+%v) = %d, want %d", c.at, got, c.want)
		}
	}
	// Memoized answers: repeated queries in one epoch hit the cache and
	// agree; queries in the costed-out epoch see the detour.
	if d := s.Distance("a", "d", t0.Add(50*time.Second)); d != 20 {
		t.Fatalf("pre-change distance = %d, want 20 (ECMP)", d)
	}
	if d := s.Distance("a", "d", t0.Add(150*time.Second)); d != 20 {
		t.Fatalf("mid-epoch distance = %d, want 20 via c", d)
	}
	if d := s.Distance("a", "d", t0.Add(60*time.Second)); d != 20 {
		t.Fatalf("cached re-query = %d, want 20", d)
	}
	// A change recorded before the cached instants shifts every epoch
	// number; the memo must rebuild rather than serve stale distances.
	if err := s.SetWeight(t0.Add(40*time.Second), "ac", 100); err != nil {
		t.Fatal(err)
	}
	if d := s.Distance("a", "d", t0.Add(150*time.Second)); d != 50 {
		t.Fatalf("post-insert distance at 150s = %d, want 50 (bd=40, c-detour costed to 100)", d)
	}
	if d := s.Distance("a", "d", t0.Add(50*time.Second)); d != 20 {
		t.Fatalf("post-insert distance at 50s = %d, want 20 (bd still 10)", d)
	}
	if d := s.Distance("a", "d", t0.Add(250*time.Second)); d != 20 {
		t.Fatalf("post-insert distance at 250s = %d, want 20 (bd back to 10)", d)
	}
}
