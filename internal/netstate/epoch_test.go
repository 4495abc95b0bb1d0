package netstate_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"grca/internal/bgp"
	"grca/internal/locus"
	"grca/internal/netstate"
	"grca/internal/ospf"
	"grca/internal/testnet"
)

// uncached returns a new view over n's simulations, registered as
// testnet registers n.View. Its expansion cache starts empty, so its
// first answer for a key is computed, not remembered.
func uncached(n *testnet.Net) *netstate.View {
	v := netstate.NewView(n.Topo, n.OSPF, n.BGP)
	v.RegisterServer("cdn-nyc-s1", "cdn-nyc", "nyc-per1")
	v.RegisterClient("agent-1", testnet.AgentAddr, "")
	return v
}

// TestEpochEquivalence is the property behind the routing-epoch cache:
// under a random change log, a computed Expand(loc, level, t1) equals a
// computed Expand(loc, level, t2) (as a set) whenever EpochAt(t1) ==
// EpochAt(t2), for every expansion family that consults routing state.
// Distinct epochs must also be distinguishable: a weight change that
// actually reroutes yields a different epoch on the two sides of its
// instant.
//
// A conversion that reads no routing state is memoized once for every
// epoch, so it must answer identically at instants in different epochs,
// and its error, which the memo hands to every later instant, must name
// none.
func TestEpochEquivalence(t *testing.T) {
	links := []string{"nyc-chi-1", "nyc-chi-2", "chi-wdc-1", "chi-wdc-2", "nyc-wdc-1", "nyc-wdc-2", "chi-core"}
	weightsFor := []int{5, 10, 25, 40, 80}
	probes := []struct {
		loc   locus.Location
		level locus.Type
	}{
		{locus.Between(locus.ServerClient, "cdn-nyc-s1", "agent-1"), locus.Router},
		{locus.Between(locus.ServerClient, "cdn-nyc-s1", "agent-1"), locus.LogicalLink},
		{locus.Between(locus.ServerClient, "cdn-nyc-s1", "agent-1"), locus.IngressEgress},
		{locus.Between(locus.IngressEgress, "nyc-per1", "wdc-per1"), locus.Router},
		{locus.Between(locus.IngressEgress, "nyc-per1", "wdc-per1"), locus.Interface},
		{locus.Between(locus.IngressDestination, "nyc-per1", testnet.AgentAddr.String()), locus.LogicalLink},
		{locus.Between(locus.RouterNeighbor, "nyc-per1", "chi-per1"), locus.Router},
	}
	static := []struct {
		loc   locus.Location
		level locus.Type
	}{
		{locus.Between(locus.Interface, "chi-per1", "to-custB"), locus.Router},
		{locus.Between(locus.Interface, "chi-per1", "to-custB"), locus.Interface},
		{locus.Between(locus.Interface, "chi-per1", "to-custB"), locus.Layer1Device},
		{locus.Between(locus.Interface, "nyc-cr1", "to-chi-cr1"), locus.PhysicalLink},
		{locus.At(locus.Router, "chi-per1"), locus.Router},
		{locus.At(locus.Router, "chi-per1"), locus.Interface},
		{locus.At(locus.LogicalLink, "nyc-chi-1"), locus.Layer1Device},
		{locus.At(locus.PhysicalLink, "nyc-chi-1-c1"), locus.LogicalLink},
		{locus.Between(locus.LineCard, "nyc-per1", "1"), locus.Interface},
		{locus.At(locus.Server, "cdn-nyc-s1"), locus.Router},
		{locus.Between(locus.EgressDestination, "chi-per1", testnet.AgentAddr.String()), locus.PoP},
		{locus.Between(locus.ServerClient, "cdn-nyc-s1", "agent-1"), locus.ServerClient},
		{locus.Between(locus.RouterNeighbor, "nyc-per1", "chi-per1"), locus.RouterNeighbor},
		// Errors: an unknown element, an unsupported level, an
		// unregistered server.
		{locus.Between(locus.Interface, "chi-per1", "ghost"), locus.Router},
		{locus.At(locus.Router, "chi-per1"), locus.Layer1Device},
		{locus.At(locus.Server, "cdn-lax-s1"), locus.Router},
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := testnet.Build(t.Fatalf)
		// Random change log: interleaved OSPF weight changes and BGP
		// announce/withdraw updates at increasing instants.
		at := testnet.T0
		for i := 0; i < 25; i++ {
			at = at.Add(time.Duration(1+rng.Intn(600)) * time.Second)
			if rng.Intn(3) < 2 {
				id := links[rng.Intn(len(links))]
				w := weightsFor[rng.Intn(len(weightsFor))]
				if err := n.OSPF.SetWeight(at, id, w); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			} else {
				egress := []string{"chi-per1", "wdc-per1"}[rng.Intn(2)]
				if rng.Intn(2) == 0 {
					err := n.BGP.Announce(at, bgp.Route{
						Prefix: testnet.ClientPrefix, Egress: egress,
						LocalPref: 100, ASPathLen: 2 + rng.Intn(3),
					})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				} else {
					if err := n.BGP.Withdraw(at, testnet.ClientPrefix, egress); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
		}
		horizon := int(at.Add(time.Hour).Sub(testnet.T0) / time.Second)
		sample := func() time.Time {
			return testnet.T0.Add(time.Duration(rng.Intn(horizon)) * time.Second)
		}
		type result struct {
			locs []string
			err  bool
		}
		expand := func(p int, when time.Time) result {
			locs, err := uncached(n).Expand(probes[p].loc, probes[p].level, when)
			return result{locs: keys(locs), err: err != nil}
		}
		// Reference expansion per (probe, epoch), built as sampled.
		ref := map[[3]int]result{}
		for trial := 0; trial < 200; trial++ {
			when := sample()
			ep := n.View.EpochAt(when)
			for p := range probes {
				got := expand(p, when)
				key := [3]int{p, ep.OSPF, ep.BGP}
				want, seen := ref[key]
				if !seen {
					ref[key] = got
					continue
				}
				if got.err != want.err || len(got.locs) != len(want.locs) {
					t.Fatalf("seed %d: probe %d epoch %v: expansion diverged within epoch: %v vs %v",
						seed, p, ep, got, want)
				}
				for i := range got.locs {
					if got.locs[i] != want.locs[i] {
						t.Fatalf("seed %d: probe %d epoch %v: expansion diverged within epoch: %v vs %v",
							seed, p, ep, got, want)
					}
				}
			}
		}
		// Topology-only conversions: one answer across epochs, from a
		// computing view and from the shared one alike.
		before := testnet.T0.Add(-time.Hour) // ahead of every change
		crossed := 0
		for p, sp := range static {
			want, werr := uncached(n).Expand(sp.loc, sp.level, before)
			if werr != nil && strings.Contains(werr.Error(), before.Format("2006")) {
				t.Fatalf("seed %d: static probe %d: error %q names an instant", seed, p, werr)
			}
			for trial := 0; trial < 20; trial++ {
				when := sample()
				if n.View.EpochAt(when) != n.View.EpochAt(before) {
					crossed++
				}
				for _, v := range []*netstate.View{uncached(n), n.View} {
					got, gerr := v.Expand(sp.loc, sp.level, when)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) ||
						strings.Join(keys(got), " ") != strings.Join(keys(want), " ") {
						t.Fatalf("seed %d: static probe %d (%v → %v) at %v = %v, %v; at %v (another epoch) = %v, %v",
							seed, p, sp.loc, sp.level, when, keys(got), gerr, before, keys(want), werr)
					}
				}
			}
		}
		if crossed == 0 {
			t.Fatalf("seed %d: no static probe was asked outside the first epoch; the test proves nothing", seed)
		}
	}
}

// TestViewEpochComposition checks that the composed epoch moves exactly
// when either substrate's change log has an instant at or before t.
func TestViewEpochComposition(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	t0 := testnet.T0
	if ep := n.View.EpochAt(t0.Add(time.Hour)); ep.OSPF != 0 {
		t.Fatalf("OSPF epoch before any weight change = %d, want 0", ep.OSPF)
	}
	// testnet announces 3 routes at T0: one shared instant, one epoch step.
	if ep := n.View.EpochAt(t0); ep.BGP != 1 {
		t.Fatalf("BGP epoch at T0 = %d, want 1 (announcements at T0)", ep.BGP)
	}
	if ep := n.View.EpochAt(t0.Add(-time.Second)); ep.BGP != 0 {
		t.Fatalf("BGP epoch before T0 = %d, want 0", ep.BGP)
	}
	if err := n.OSPF.SetWeight(t0.Add(10*time.Minute), "nyc-chi-1", 40); err != nil {
		t.Fatal(err)
	}
	if err := n.BGP.Withdraw(t0.Add(20*time.Minute), testnet.ClientPrefix, "chi-per1"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want netstate.Epoch
	}{
		{5 * time.Minute, netstate.Epoch{OSPF: 0, BGP: 1}},
		{10 * time.Minute, netstate.Epoch{OSPF: 1, BGP: 1}},
		{15 * time.Minute, netstate.Epoch{OSPF: 1, BGP: 1}},
		{25 * time.Minute, netstate.Epoch{OSPF: 1, BGP: 2}},
	}
	for _, c := range cases {
		if got := n.View.EpochAt(t0.Add(c.at)); got != c.want {
			t.Errorf("EpochAt(T0+%v) = %+v, want %+v", c.at, got, c.want)
		}
	}
	og, bg := n.OSPF.Clock().Generation(), n.BGP.Clock().Generation()
	if og != 1 || bg != 4 {
		t.Errorf("Generations = %d, %d, want 1, 4", og, bg)
	}
}

// TestExpandCacheInvalidatedByGeneration: a change recorded at an earlier
// instant than the ones already cached renumbers the epochs, so the same
// (location, level, epoch) key can name a different routing state after
// it. The view must drop its table when a generation moves rather than
// answer from the old numbering.
func TestExpandCacheInvalidatedByGeneration(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	t0 := testnet.T0
	span := locus.Between(locus.IngressEgress, "nyc-per1", "wdc-per1")
	if err := n.OSPF.SetWeight(t0.Add(2*time.Hour), "chi-core", 40); err != nil {
		t.Fatal(err)
	}
	late, err := n.View.Expand(span, locus.LogicalLink, t0.Add(3*time.Hour)) // OSPF epoch 1
	if err != nil || len(late) == 0 {
		t.Fatalf("Expand at T0+3h = %v, %v", late, err)
	}
	// Cost out a link on that path before the first change: T0+1h is now
	// in OSPF epoch 1 too, with the link gone.
	if err := n.OSPF.SetWeight(t0.Add(30*time.Minute), late[0].A, ospf.Infinity); err != nil {
		t.Fatal(err)
	}
	at := t0.Add(time.Hour)
	if a, b := n.View.EpochAt(at), n.View.EpochAt(t0.Add(3*time.Hour)); a.OSPF != 1 || b.OSPF != 2 {
		t.Fatalf("epochs after the earlier change = %+v, %+v; want OSPF 1 and 2", a, b)
	}
	got, gerr := n.View.Expand(span, locus.LogicalLink, at)
	want, werr := uncached(n).Expand(span, locus.LogicalLink, at)
	if (gerr != nil) != (werr != nil) || strings.Join(keys(got), " ") != strings.Join(keys(want), " ") {
		t.Fatalf("Expand at T0+1h = %v, %v; a fresh view computes %v, %v", keys(got), gerr, keys(want), werr)
	}
	if strings.Join(keys(got), " ") == strings.Join(keys(late), " ") {
		t.Fatalf("costing out %s did not change the path %v; the test proves nothing", late[0].A, keys(late))
	}
}
