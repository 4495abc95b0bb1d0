package bgp

import (
	"net/netip"
	"testing"
	"time"

	"grca/internal/netmodel"
	"grca/internal/ospf"
)

var t0 = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

// line builds a linear backbone a—b—c with unit weights, so that from "a"
// the IGP distance to "a" is 0, to "b" is 10, to "c" is 20.
func line(t *testing.T) (*netmodel.Topology, *ospf.Sim) {
	t.Helper()
	topo := netmodel.NewTopology()
	for i, n := range []string{"a", "b", "c"} {
		r := &netmodel.Router{Name: n, Role: netmodel.RoleCore,
			Loopback: netip.AddrFrom4([4]byte{10, 255, 0, byte(i + 1)})}
		if err := topo.AddRouter(r); err != nil {
			t.Fatal(err)
		}
		topo.AddCard(r)
	}
	sub := 0
	link := func(id, x, y string) {
		rx, ry := topo.Routers[x], topo.Routers[y]
		base := netip.AddrFrom4([4]byte{10, 0, 0, byte(sub * 4)})
		sub++
		pfx := netip.PrefixFrom(base, 30)
		i1, _ := topo.AddInterface(rx.Cards[0], "to-"+y, pfx, base.Next())
		i2, _ := topo.AddInterface(ry.Cards[0], "to-"+x, pfx, base.Next().Next())
		if _, err := topo.Connect(id, i1, i2); err != nil {
			t.Fatal(err)
		}
	}
	link("ab", "a", "b")
	link("bc", "b", "c")
	return topo, ospf.New(topo, map[string]int{"ab": 10, "bc": 10})
}

func TestLongestPrefixMatch(t *testing.T) {
	_, osim := line(t)
	s := New(osim)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Announce(t0, Route{Prefix: netip.MustParsePrefix("192.0.0.0/8"), Egress: "a", LocalPref: 100}))
	must(s.Announce(t0, Route{Prefix: netip.MustParsePrefix("192.0.2.0/24"), Egress: "c", LocalPref: 100}))

	ip := netip.MustParseAddr("192.0.2.55")
	pfx, ok := s.Lookup(ip, t0.Add(time.Minute))
	if !ok || pfx.Bits() != 24 {
		t.Fatalf("Lookup = %v, %v; want /24", pfx, ok)
	}
	// An address outside the /24 falls back to the /8.
	pfx, ok = s.Lookup(netip.MustParseAddr("192.9.9.9"), t0.Add(time.Minute))
	if !ok || pfx.Bits() != 8 {
		t.Fatalf("Lookup fallback = %v, %v; want /8", pfx, ok)
	}
	if _, ok := s.Lookup(netip.MustParseAddr("8.8.8.8"), t0); ok {
		t.Error("Lookup matched unannounced space")
	}
	// Before the announcement time there is no route.
	if _, ok := s.Lookup(ip, t0.Add(-time.Minute)); ok {
		t.Error("Lookup matched before announcement")
	}
}

func TestHotPotatoTieBreak(t *testing.T) {
	_, osim := line(t)
	s := New(osim)
	pfx := netip.MustParsePrefix("198.51.100.0/24")
	// Two egresses with identical attributes: b (distance 10 from a) and
	// c (distance 20 from a). Hot potato picks b.
	if err := s.Announce(t0, Route{Prefix: pfx, Egress: "b", LocalPref: 100, ASPathLen: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Announce(t0, Route{Prefix: pfx, Egress: "c", LocalPref: 100, ASPathLen: 3}); err != nil {
		t.Fatal(err)
	}
	ip := netip.MustParseAddr("198.51.100.1")
	r, err := s.BestEgress("a", ip, t0.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if r.Egress != "b" {
		t.Errorf("hot potato egress = %s, want b", r.Egress)
	}
	// From c itself, c wins (distance 0).
	r, _ = s.BestEgress("c", ip, t0.Add(time.Second))
	if r.Egress != "c" {
		t.Errorf("egress from c = %s, want c", r.Egress)
	}
}

func TestDecisionProcessOrder(t *testing.T) {
	_, osim := line(t)
	s := New(osim)
	pfx := netip.MustParsePrefix("203.0.113.0/24")
	ip := netip.MustParseAddr("203.0.113.7")
	at := t0.Add(time.Second)

	// LocalPref dominates despite longer AS path and farther egress.
	s.Announce(t0, Route{Prefix: pfx, Egress: "b", LocalPref: 100, ASPathLen: 1})
	s.Announce(t0, Route{Prefix: pfx, Egress: "c", LocalPref: 200, ASPathLen: 9})
	if r, _ := s.BestEgress("a", ip, at); r.Egress != "c" {
		t.Errorf("localpref not dominant: got %s", r.Egress)
	}

	// Equal localpref: shortest AS path wins.
	s2 := New(osim)
	s2.Announce(t0, Route{Prefix: pfx, Egress: "b", LocalPref: 100, ASPathLen: 5})
	s2.Announce(t0, Route{Prefix: pfx, Egress: "c", LocalPref: 100, ASPathLen: 2})
	if r, _ := s2.BestEgress("a", ip, at); r.Egress != "c" {
		t.Errorf("as-path length not applied: got %s", r.Egress)
	}

	// Then origin, then MED.
	s3 := New(osim)
	s3.Announce(t0, Route{Prefix: pfx, Egress: "b", LocalPref: 100, ASPathLen: 2, Origin: 2})
	s3.Announce(t0, Route{Prefix: pfx, Egress: "c", LocalPref: 100, ASPathLen: 2, Origin: 0})
	if r, _ := s3.BestEgress("a", ip, at); r.Egress != "c" {
		t.Errorf("origin not applied: got %s", r.Egress)
	}
	s4 := New(osim)
	s4.Announce(t0, Route{Prefix: pfx, Egress: "b", LocalPref: 100, MED: 50})
	s4.Announce(t0, Route{Prefix: pfx, Egress: "c", LocalPref: 100, MED: 10})
	if r, _ := s4.BestEgress("a", ip, at); r.Egress != "c" {
		t.Errorf("MED not applied: got %s", r.Egress)
	}
}

func TestWithdrawAndEgressChanges(t *testing.T) {
	_, osim := line(t)
	s := New(osim)
	pfx := netip.MustParsePrefix("198.51.100.0/24")
	ip := netip.MustParseAddr("198.51.100.1")
	t1 := t0.Add(time.Hour)
	t2 := t0.Add(2 * time.Hour)

	s.Announce(t0, Route{Prefix: pfx, Egress: "b", LocalPref: 100})
	s.Announce(t0, Route{Prefix: pfx, Egress: "c", LocalPref: 100})
	// b withdraws at t1, re-announces at t2.
	if err := s.Withdraw(t1, pfx, "b"); err != nil {
		t.Fatal(err)
	}
	s.Announce(t2, Route{Prefix: pfx, Egress: "b", LocalPref: 100})

	if r, _ := s.BestEgress("a", ip, t1.Add(time.Minute)); r.Egress != "c" {
		t.Errorf("after withdraw egress = %s, want c", r.Egress)
	}
	if r, _ := s.BestEgress("a", ip, t2.Add(time.Minute)); r.Egress != "b" {
		t.Errorf("after re-announce egress = %s, want b", r.Egress)
	}

	changes := s.EgressChanges("a", ip, t0, t0.Add(3*time.Hour))
	if len(changes) != 2 {
		t.Fatalf("egress changes = %+v, want 2", changes)
	}
	if changes[0].Old != "b" || changes[0].New != "c" || !changes[0].At.Equal(t1) {
		t.Errorf("first change = %+v", changes[0])
	}
	if changes[1].Old != "c" || changes[1].New != "b" || !changes[1].At.Equal(t2) {
		t.Errorf("second change = %+v", changes[1])
	}
	// Outside the window: no changes.
	if got := s.EgressChanges("a", ip, t2.Add(time.Hour), t2.Add(2*time.Hour)); len(got) != 0 {
		t.Errorf("out-of-window changes = %+v", got)
	}
}

func TestRecordValidation(t *testing.T) {
	_, osim := line(t)
	s := New(osim)
	pfx := netip.MustParsePrefix("198.51.100.0/24")
	if err := s.Announce(t0, Route{Egress: "b"}); err == nil {
		t.Error("invalid prefix accepted")
	}
	if err := s.Announce(t0, Route{Prefix: pfx}); err == nil {
		t.Error("missing egress accepted")
	}
	if err := s.Announce(t0.Add(time.Hour), Route{Prefix: pfx, Egress: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Announce(t0, Route{Prefix: pfx, Egress: "b"}); err == nil {
		t.Error("out-of-order update accepted")
	}
	if len(s.updates) != 1 {
		t.Errorf("updates = %d, want 1", len(s.updates))
	}
}

func TestBestEgressNoRoute(t *testing.T) {
	_, osim := line(t)
	s := New(osim)
	if _, err := s.BestEgress("a", netip.MustParseAddr("192.0.2.1"), t0); err == nil {
		t.Error("BestEgress with empty RIB should fail")
	}
}

// TestEpochsAndBestPathMemo pins the interdomain half of the
// routing-epoch contract: EpochAt counts update instants, and the
// memoized BestEgress stays correct when either its BGP inputs change
// (withdraw) or only the OSPF hot-potato input changes (weight change
// with no BGP update at all).
func TestEpochsAndBestPathMemo(t *testing.T) {
	_, osim := line(t)
	s := New(osim)
	pfx := netip.MustParsePrefix("198.51.100.0/24")
	dst := netip.MustParseAddr("198.51.100.9")
	ann := func(at time.Time, egress string) {
		t.Helper()
		if err := s.Announce(at, Route{Prefix: pfx, Egress: egress, LocalPref: 100, ASPathLen: 3}); err != nil {
			t.Fatal(err)
		}
	}
	ann(t0, "a")
	ann(t0, "c")
	if s.Clock().Len() != 1 || s.EpochAt(t0) != 1 || s.EpochAt(t0.Add(-time.Second)) != 0 {
		t.Fatalf("epochs after two same-instant announcements: %d, EpochAt(t0)=%d", s.Clock().Len(), s.EpochAt(t0))
	}
	// Hot potato from b: a and c are both at distance 10, so the
	// deterministic name tie-break picks a. Query twice so the second
	// answer comes from the memo.
	for i := 0; i < 2; i++ {
		r, err := s.BestEgress("b", dst, t0.Add(time.Minute))
		if err != nil || r.Egress != "a" {
			t.Fatalf("query %d: best egress = %+v, %v; want a", i, r, err)
		}
	}
	// An OSPF-only change moves the tie-break without any BGP update: the
	// memo must not serve the pre-change selection at post-change instants.
	if err := osim.SetWeight(t0.Add(2*time.Minute), "ab", 50); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.BestEgress("b", dst, t0.Add(time.Minute)); r.Egress != "a" {
		t.Fatalf("pre-change instant after weight change: egress = %s, want a", r.Egress)
	}
	if r, _ := s.BestEgress("b", dst, t0.Add(3*time.Minute)); r.Egress != "c" {
		t.Fatalf("post-change instant: egress = %s, want c (ab costed to 50)", r.Egress)
	}
	// A withdraw opens a new BGP epoch; cached pre-withdraw selections
	// must not leak past it.
	if err := s.Withdraw(t0.Add(4*time.Minute), pfx, "c"); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.BestEgress("b", dst, t0.Add(5*time.Minute)); r.Egress != "a" {
		t.Fatalf("post-withdraw: egress = %s, want a (c withdrawn)", r.Egress)
	}
	if s.EpochAt(t0.Add(5*time.Minute)) != 2 {
		t.Fatalf("EpochAt after withdraw = %d, want 2", s.EpochAt(t0.Add(5*time.Minute)))
	}
	// Lookup memo: after every egress withdraws, the prefix stops matching.
	if err := s.Withdraw(t0.Add(6*time.Minute), pfx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(dst, t0.Add(7*time.Minute)); ok {
		t.Fatal("Lookup matched a fully-withdrawn prefix")
	}
	if _, ok := s.Lookup(dst, t0.Add(5*time.Minute)); !ok {
		t.Fatal("Lookup missed the prefix at a pre-withdraw instant")
	}
}
