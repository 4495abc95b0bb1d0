package netstate_test

import (
	"testing"
	"time"

	"grca/internal/locus"
	"grca/internal/netstate"
	"grca/internal/obs"
	"grca/internal/ospf"
	"grca/internal/testnet"
)

func TestExpandRouterLevels(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	r := locus.At(locus.Router, "nyc-per1")

	got, err := n.View.Expand(r, locus.PoP, testnet.T0)
	if err != nil || len(got) != 1 || got[0] != locus.At(locus.PoP, "nyc") {
		t.Errorf("router→pop = %v, %v", got, err)
	}
	cards, err := n.View.Expand(r, locus.LineCard, testnet.T0)
	if err != nil || len(cards) != 2 {
		t.Errorf("router→cards = %v, %v", cards, err)
	}
	ifaces, err := n.View.Expand(r, locus.Interface, testnet.T0)
	if err != nil || len(ifaces) < 3 {
		t.Errorf("router→interfaces = %v, %v", ifaces, err)
	}
	if _, err := n.View.Expand(r, locus.Layer1Device, testnet.T0); err == nil {
		t.Error("router→layer1 should be unsupported (ambiguous without a link)")
	}
	if _, err := n.View.Expand(locus.At(locus.Router, "ghost"), locus.PoP, testnet.T0); err == nil {
		t.Error("unknown router accepted")
	}
}

func TestExpandLinkAndPhysical(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	link := locus.At(locus.LogicalLink, "custB-att")

	rts, err := n.View.Expand(link, locus.Router, testnet.T0)
	if err != nil || len(rts) != 2 {
		t.Fatalf("link→routers = %v, %v", rts, err)
	}
	ifs, err := n.View.Expand(link, locus.Interface, testnet.T0)
	if err != nil || len(ifs) != 2 {
		t.Fatalf("link→interfaces = %v, %v", ifs, err)
	}
	phys, err := n.View.Expand(link, locus.PhysicalLink, testnet.T0)
	if err != nil || len(phys) != 1 || phys[0].A != "custB-att-c1" {
		t.Fatalf("link→physical = %v, %v", phys, err)
	}
	l1, err := n.View.Expand(link, locus.Layer1Device, testnet.T0)
	if err != nil || len(l1) != 2 {
		t.Fatalf("link→layer1 = %v, %v", l1, err)
	}
	if _, err := n.View.Expand(link, locus.ServerClient, testnet.T0); err == nil {
		t.Error("link→server:client should be unsupported")
	}
	if _, err := n.View.Expand(locus.At(locus.LogicalLink, "ghost"), locus.Router, testnet.T0); err == nil {
		t.Error("unknown link accepted")
	}

	// Physical link conversions.
	back, err := n.View.Expand(phys[0], locus.LogicalLink, testnet.T0)
	if err != nil || len(back) != 1 || back[0] != link {
		t.Errorf("physical→logical = %v, %v", back, err)
	}
	devs, err := n.View.Expand(phys[0], locus.Layer1Device, testnet.T0)
	if err != nil || len(devs) != 2 {
		t.Errorf("physical→layer1 = %v, %v", devs, err)
	}
	if _, err := n.View.Expand(phys[0], locus.Router, testnet.T0); err == nil {
		t.Error("physical→router should be unsupported")
	}
	if _, err := n.View.Expand(locus.At(locus.PhysicalLink, "ghost"), locus.Layer1Device, testnet.T0); err == nil {
		t.Error("unknown physical accepted")
	}
}

func TestExpandLayer1AndPoP(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	d := locus.At(locus.Layer1Device, "mesh-nyc-cr1")
	got, err := n.View.Expand(d, locus.Layer1Device, testnet.T0)
	if err != nil || len(got) != 1 || got[0] != d {
		t.Errorf("layer1 identity = %v, %v", got, err)
	}
	p := locus.At(locus.PoP, "nyc")
	got, err = n.View.Expand(p, locus.PoP, testnet.T0)
	if err != nil || len(got) != 1 {
		t.Errorf("pop identity = %v, %v", got, err)
	}
	if _, err := n.View.Expand(p, locus.Router, testnet.T0); err == nil {
		t.Error("pop→router should be unsupported")
	}
}

func TestExpandIngressDestination(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	// Destination given as a raw address.
	id := locus.Between(locus.IngressDestination, "nyc-per1", testnet.AgentAddr.String())

	norm, err := n.View.Expand(id, locus.IngressDestination, testnet.T0)
	if err != nil || len(norm) != 1 || norm[0].B != testnet.ClientPrefix.String() {
		t.Fatalf("normalize = %v, %v", norm, err)
	}
	ie, err := n.View.Expand(id, locus.IngressEgress, testnet.T0)
	if err != nil || len(ie) != 1 || ie[0].B != "chi-per1" {
		t.Fatalf("ingress:destination→ingress:egress = %v, %v", ie, err)
	}
	rts, err := n.View.Expand(id, locus.Router, testnet.T0)
	if err != nil || len(rts) < 3 {
		t.Fatalf("ingress:destination→routers = %v, %v", rts, err)
	}

	// A destination with no route expands to nothing (not an error).
	noRoute := locus.Between(locus.IngressDestination, "nyc-per1", "203.0.113.9")
	got, err := n.View.Expand(noRoute, locus.Router, testnet.T0)
	if err != nil || got != nil {
		t.Errorf("routeless destination = %v, %v", got, err)
	}
	// ...and normalization leaves it untouched.
	norm, err = n.View.Expand(noRoute, locus.IngressDestination, testnet.T0)
	if err != nil || norm[0] != noRoute {
		t.Errorf("routeless normalize = %v, %v", norm, err)
	}

	// A prefix literal destination resolves too.
	idp := locus.Between(locus.IngressDestination, "nyc-per1", testnet.ClientPrefix.String())
	ie, err = n.View.Expand(idp, locus.IngressEgress, testnet.T0)
	if err != nil || len(ie) != 1 {
		t.Errorf("prefix destination = %v, %v", ie, err)
	}
	// Garbage destination errors.
	if _, err := n.View.Expand(locus.Between(locus.IngressDestination, "nyc-per1", "wat"),
		locus.Router, testnet.T0); err == nil {
		t.Error("garbage destination accepted")
	}
}

func TestExpandServer(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	s := locus.At(locus.Server, "cdn-nyc-s1")
	got, err := n.View.Expand(s, locus.Router, testnet.T0)
	if err != nil || len(got) != 1 || got[0].A != "nyc-per1" {
		t.Errorf("server→router = %v, %v", got, err)
	}
	// The node registers with the same attachment.
	got, err = n.View.Expand(locus.At(locus.Server, "cdn-nyc"), locus.Router, testnet.T0)
	if err != nil || len(got) != 1 {
		t.Errorf("node→router = %v, %v", got, err)
	}
	if _, err := n.View.Expand(locus.At(locus.Server, "ghost"), locus.Router, testnet.T0); err == nil {
		t.Error("unregistered server accepted")
	}
	if _, err := n.View.Expand(s, locus.Interface, testnet.T0); err == nil {
		t.Error("server→interface should be unsupported")
	}
}

// TestRegistrationDropsExpandCache: a server registered after an
// expansion of it failed must expand from then on — registration changes
// what a location expands to, so the view's cache cannot outlive it.
func TestRegistrationDropsExpandCache(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	late := locus.At(locus.Server, "cdn-wdc-s1")
	if _, err := n.View.Expand(late, locus.Router, testnet.T0); err == nil {
		t.Fatal("unregistered server accepted")
	}
	n.View.RegisterServer("cdn-wdc-s1", "cdn-wdc", "wdc-per1")
	got, err := n.View.Expand(late, locus.Router, testnet.T0)
	if err != nil || len(got) != 1 || got[0].A != "wdc-per1" {
		t.Errorf("server registered after a failed expansion → %v, %v", got, err)
	}
}

func TestExpandServerClientEdges(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	sc := locus.Between(locus.ServerClient, "cdn-nyc-s1", "agent-1")
	got, err := n.View.Expand(sc, locus.ServerClient, testnet.T0)
	if err != nil || len(got) != 1 || got[0] != sc {
		t.Errorf("identity = %v, %v", got, err)
	}
	// Client given as a literal address rather than a registered agent.
	scAddr := locus.Between(locus.ServerClient, "cdn-nyc-s1", testnet.AgentAddr.String())
	ie, err := n.View.Expand(scAddr, locus.IngressEgress, testnet.T0)
	if err != nil || len(ie) != 1 {
		t.Errorf("address client = %v, %v", ie, err)
	}
	// Client with no route expands to nothing.
	scNo := locus.Between(locus.ServerClient, "cdn-nyc-s1", "203.0.113.9")
	if got, err := n.View.Expand(scNo, locus.Router, testnet.T0); err != nil || got != nil {
		t.Errorf("routeless client = %v, %v", got, err)
	}
	// Garbage client errors.
	if _, err := n.View.Expand(locus.Between(locus.ServerClient, "cdn-nyc-s1", "wat"),
		locus.Router, testnet.T0); err == nil {
		t.Error("garbage client accepted")
	}
}

func TestExpandPathUnsupportedLevel(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	span := locus.Between(locus.IngressEgress, "nyc-per1", "chi-per1")
	if _, err := n.View.Expand(span, locus.LineCard, testnet.T0); err == nil {
		t.Error("path→line-card should be unsupported")
	}
	// PoP and Layer1 levels over a path.
	pops, err := n.View.Expand(span, locus.PoP, testnet.T0)
	if err != nil || len(pops) != 2 {
		t.Errorf("path→pops = %v, %v", pops, err)
	}
	l1, err := n.View.Expand(span, locus.Layer1Device, testnet.T0)
	if err != nil || len(l1) == 0 {
		t.Errorf("path→layer1 = %v, %v", l1, err)
	}
}

func TestExpandPIMPairFallbackWhenPartitioned(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	t1 := testnet.T0.Add(time.Hour)
	// Partition chi-per1 from the backbone.
	for _, l := range []string{"chi-up1", "chi-up2"} {
		if err := n.OSPF.SetWeight(t1, l, ospf.Infinity); err != nil {
			t.Fatal(err)
		}
	}
	adj := locus.Between(locus.RouterNeighbor, "nyc-per1", "chi-per1")
	got, err := n.View.Expand(adj, locus.Router, t1.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	// Unroutable pair still expands to its two endpoints.
	if len(got) != 2 {
		t.Errorf("partitioned pair expansion = %v", got)
	}
}

func TestClientAddrAndServerRouterAccessors(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	// A registered client routes by the address it was registered with.
	byName, err := n.View.EgressFor("nyc-per1", "agent-1", testnet.T0)
	if byAddr, err2 := n.View.EgressFor("nyc-per1", testnet.AgentAddr.String(), testnet.T0); err != nil || err2 != nil || byName != byAddr {
		t.Errorf("agent-1 egresses at %v (%v), its address at %v (%v)", byName, err, byAddr, err2)
	}
	if _, err := n.View.EgressFor("nyc-per1", "nobody", testnet.T0); err == nil {
		t.Error("unknown client routed")
	}
	if r, ok := n.View.ServerRouter("cdn-nyc"); !ok || r != "nyc-per1" {
		t.Errorf("ServerRouter = %v, %v", r, ok)
	}
	if _, ok := n.View.ServerRouter("nobody"); ok {
		t.Error("unknown server found")
	}
	// EgressFor with an address literal.
	eg, err := n.View.EgressFor("nyc-per1", testnet.AgentAddr.String(), testnet.T0)
	if err != nil || eg != "chi-per1" {
		t.Errorf("EgressFor literal = %v, %v", eg, err)
	}
	if _, err := n.View.EgressFor("nyc-per1", "203.0.113.9", testnet.T0); err == nil {
		t.Error("routeless EgressFor accepted")
	}
}

// TestWarmAnswersAllocateNothing pins the hot path DESIGN §10 promises:
// once memoized, a spatial expansion and the routing answers beneath it
// are served without allocating. A topology-only expansion is memoized
// for every epoch: asked in a second epoch, it is already a hit.
func TestWarmAnswersAllocateNothing(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	at := testnet.T0.Add(time.Minute)
	later := testnet.T0.Add(2 * time.Hour)
	if err := n.OSPF.SetWeight(testnet.T0.Add(time.Hour), "nyc-wdc-1", 30); err != nil {
		t.Fatal(err)
	}
	if n.View.EpochAt(at) == n.View.EpochAt(later) {
		t.Fatalf("%v and %v share epoch %v; the static case proves nothing", at, later, n.View.EpochAt(at))
	}
	span := locus.Between(locus.ServerClient, "cdn-nyc-s1", "agent-1")
	if locs, err := n.View.Expand(span, locus.LogicalLink, at); err != nil || len(locs) == 0 {
		t.Fatalf("Expand(%v) = %v, %v; want a routed path", span, locs, err)
	}
	ifc := locus.Between(locus.Interface, "chi-per1", "to-custB")
	if locs, err := n.View.Expand(ifc, locus.Layer1Device, at); err != nil || len(locs) == 0 {
		t.Fatalf("Expand(%v) = %v, %v; want its layer-1 devices", ifc, locs, err)
	}
	hits, misses := obs.GetCounter("netstate.expand.cache.hits"), obs.GetCounter("netstate.expand.cache.misses")
	h, m := hits.Value(), misses.Value()
	if _, err := n.View.Expand(ifc, locus.Layer1Device, later); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != h+1 || misses.Value() != m {
		t.Fatalf("static Expand in a second epoch: hits +%d, misses +%d; want a hit", hits.Value()-h, misses.Value()-m)
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"View.Expand", func() { _, _ = n.View.Expand(span, locus.LogicalLink, at) }},
		{"View.Expand (static, second epoch)", func() { _, _ = n.View.Expand(ifc, locus.Layer1Device, later) }},
		{"ospf.Sim.Distance", func() { _ = n.OSPF.Distance("nyc-per1", "wdc-per1", at) }},
		{"bgp.Sim.Lookup", func() { _, _ = n.BGP.Lookup(testnet.AgentAddr, at) }},
		{"bgp.Sim.BestEgress", func() { _, _ = n.BGP.BestEgress("nyc-per1", testnet.AgentAddr, at) }},
	} {
		c.fn() // fill
		if got := testing.AllocsPerRun(100, c.fn); got != 0 {
			t.Errorf("warm %s allocates %.0f times per call, want 0", c.name, got)
		}
	}
}

// TestStaticExpansionsStoredOnce: the expansion memo holds one entry per
// topology-only conversion however many routing epochs ask for it, and
// one per epoch for a routed one.
func TestStaticExpansionsStoredOnce(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	var instants []time.Time
	for i := 0; i < 5; i++ {
		if i > 0 {
			if err := n.OSPF.SetWeight(testnet.T0.Add(time.Duration(i)*time.Hour), "nyc-wdc-1", 20+i); err != nil {
				t.Fatal(err)
			}
		}
		instants = append(instants, testnet.T0.Add(time.Duration(i)*time.Hour+time.Minute))
	}
	seen := map[netstate.Epoch]bool{}
	for _, at := range instants {
		seen[n.View.EpochAt(at)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("instants span %d epochs, want 5", len(seen))
	}
	entries := obs.GetGauge("netstate.expand.cache.entries")
	ask := func(v *netstate.View, loc locus.Location, level locus.Type) {
		t.Helper()
		for _, at := range instants {
			if _, err := v.Expand(loc, level, at); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := uncached(n)
	before := entries.Value()
	ask(v, locus.Between(locus.Interface, "chi-per1", "to-custB"), locus.Router)
	ask(v, locus.Between(locus.Interface, "chi-per1", "to-custB"), locus.Layer1Device)
	ask(v, locus.At(locus.LogicalLink, "nyc-chi-1"), locus.Interface)
	if got := entries.Value() - before; got != 3 {
		t.Fatalf("3 static conversions asked in 5 epochs stored %d entries, want 3", got)
	}
	ask(v, locus.Between(locus.IngressEgress, "nyc-per1", "wdc-per1"), locus.Router)
	if got := entries.Value() - before; got != 3+5 {
		t.Fatalf("a routed conversion asked in 5 epochs brought the entries to %d, want 3+5", got)
	}
	v.RegisterClient("agent-2", testnet.AgentAddr, "")
	if got := entries.Value() - before; got != 0 {
		t.Fatalf("entries %+d after a registration dropped the memo, want 0", got)
	}
}
