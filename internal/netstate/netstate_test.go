package netstate_test

import (
	"sort"
	"testing"
	"time"

	"grca/internal/locus"
	"grca/internal/netstate"
	"grca/internal/ospf"
	"grca/internal/testnet"
)

func keys(locs []locus.Location) []string {
	out := make([]string, len(locs))
	for i, l := range locs {
		out[i] = l.String()
	}
	sort.Strings(out)
	return out
}

func TestExpandIdentity(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	loc := locus.At(locus.Router, "nyc-cr1")
	got, err := n.View.Expand(loc, locus.Router, testnet.T0)
	if err != nil || len(got) != 1 || got[0] != loc {
		t.Fatalf("identity expand = %v, %v", got, err)
	}
}

func TestExpandInterfaceChain(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	// The customer-facing interface on chi-per1 toward custB.
	ifc := locus.Between(locus.Interface, "chi-per1", "to-custB")
	cases := []struct {
		level locus.Type
		want  []string
	}{
		{locus.Router, []string{"chi-per1"}},
		{locus.PoP, []string{"chi"}},
		{locus.LineCard, []string{"chi-per1:0"}},
		{locus.LogicalLink, []string{"custB-att"}},
		{locus.PhysicalLink, []string{"custB-att-c1"}},
		{locus.Layer1Device, []string{"sonet-chi-per1-a", "sonet-chi-per1-b"}},
	}
	for _, c := range cases {
		got, err := n.View.Expand(ifc, c.level, testnet.T0)
		if err != nil {
			t.Fatalf("expand to %v: %v", c.level, err)
		}
		if g := keys(got); len(g) != len(c.want) || !equal(g, c.want) {
			t.Errorf("expand to %v = %v, want %v", c.level, g, c.want)
		}
	}
	// Unknown interface errors.
	if _, err := n.View.Expand(locus.Between(locus.Interface, "chi-per1", "nope"), locus.Router, testnet.T0); err == nil {
		t.Error("unknown interface accepted")
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExpandRouterNeighborExternal(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	// Find custB's address on the shared /30.
	ifc, ok := n.Topo.InterfaceByName("chi-per1", "to-custB")
	if !ok {
		t.Fatal("fixture missing customer interface")
	}
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())

	got, err := n.View.Expand(adj, locus.Interface, testnet.T0)
	if err != nil || len(got) != 1 || got[0].B != "to-custB" {
		t.Fatalf("neighbor→interface = %v, %v", got, err)
	}
	got, err = n.View.Expand(adj, locus.Router, testnet.T0)
	if err != nil || len(got) != 1 || got[0].A != "chi-per1" {
		t.Fatalf("neighbor→router = %v, %v", got, err)
	}
	got, err = n.View.Expand(adj, locus.Layer1Device, testnet.T0)
	if err != nil || len(got) != 2 {
		t.Fatalf("neighbor→layer1 = %v, %v", got, err)
	}
	// A neighbor IP that matches no /30 resolves to nothing (not an error:
	// the session may terminate on an unmodeled attachment).
	got, err = n.View.Expand(locus.Between(locus.RouterNeighbor, "chi-per1", "203.0.113.99"), locus.Interface, testnet.T0)
	if err != nil || got != nil {
		t.Fatalf("unresolvable neighbor = %v, %v", got, err)
	}
	// A neighbor that is neither router nor address errors.
	if _, err := n.View.Expand(locus.Between(locus.RouterNeighbor, "chi-per1", "garbage"), locus.Interface, testnet.T0); err == nil {
		t.Error("garbage neighbor accepted")
	}
}

func TestExpandRouterNeighborInternalPIM(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	// PE–PE adjacency nyc-per1 ↔ chi-per1 (custA's MVPN).
	adj := locus.Between(locus.RouterNeighbor, "nyc-per1", "chi-per1")
	got, err := n.View.Expand(adj, locus.Router, testnet.T0)
	if err != nil {
		t.Fatal(err)
	}
	g := keys(got)
	for _, want := range []string{"nyc-per1", "chi-per1"} {
		if !contains(g, want) {
			t.Errorf("PE pair expansion missing %s: %v", want, g)
		}
	}
	// The path routers between the PEs must be included too.
	foundCore := false
	for _, s := range g {
		if s == "nyc-cr1" || s == "nyc-cr2" || s == "chi-cr1" || s == "chi-cr2" {
			foundCore = true
		}
	}
	if !foundCore {
		t.Errorf("PE pair expansion lacks backbone routers: %v", g)
	}
	links, err := n.View.Expand(adj, locus.LogicalLink, testnet.T0)
	if err != nil || len(links) == 0 {
		t.Fatalf("PE pair link expansion = %v, %v", links, err)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestExpandIngressEgressECMP(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	span := locus.Between(locus.IngressEgress, "nyc-per1", "chi-per1")
	got, err := n.View.Expand(span, locus.Router, testnet.T0)
	if err != nil {
		t.Fatal(err)
	}
	g := keys(got)
	// Both planes are equal cost: per1 → cr1/cr2 → chi-cr1/cr2 → chi-per1.
	for _, want := range []string{"nyc-per1", "nyc-cr1", "nyc-cr2", "chi-cr1", "chi-cr2", "chi-per1"} {
		if !contains(g, want) {
			t.Errorf("ECMP expansion missing %s: %v", want, g)
		}
	}
	if contains(g, "wdc-cr1") {
		t.Errorf("ECMP expansion includes off-path router: %v", g)
	}
}

func TestTimeVaryingExpansion(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	t1 := testnet.T0.Add(time.Hour)
	// Cost out the plane-1 uplink of nyc-per1: all traffic shifts to cr2.
	if err := n.OSPF.SetWeight(t1, "nyc-up1", ospf.Infinity); err != nil {
		t.Fatal(err)
	}
	span := locus.Between(locus.IngressEgress, "nyc-per1", "chi-per1")
	before, err := n.View.Expand(span, locus.Router, t1.Add(-time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !contains(keys(before), "nyc-cr1") {
		t.Error("cr1 missing before cost-out")
	}
	after, err := n.View.Expand(span, locus.Router, t1.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if contains(keys(after), "nyc-cr1") {
		t.Errorf("cr1 still on path after cost-out: %v", keys(after))
	}
}

func TestExpandServerClient(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	sc := locus.Between(locus.ServerClient, "cdn-nyc-s1", "agent-1")

	// Server level: the server itself plus its CDN node.
	got, err := n.View.Expand(sc, locus.Server, testnet.T0)
	if err != nil {
		t.Fatal(err)
	}
	if g := keys(got); !contains(g, "cdn-nyc-s1") || !contains(g, "cdn-nyc") {
		t.Errorf("server-level expansion = %v", g)
	}

	// IngressEgress: hot potato sends agent traffic out at chi-per1.
	got, err = n.View.Expand(sc, locus.IngressEgress, testnet.T0)
	if err != nil || len(got) != 1 {
		t.Fatalf("ingress:egress expansion = %v, %v", got, err)
	}
	if got[0].A != "nyc-per1" || got[0].B != "chi-per1" {
		t.Errorf("ingress:egress = %v, want nyc-per1:chi-per1", got[0])
	}

	// IngressDestination normalizes to the matched /24.
	got, err = n.View.Expand(sc, locus.IngressDestination, testnet.T0)
	if err != nil || len(got) != 1 {
		t.Fatalf("ingress:destination expansion = %v, %v", got, err)
	}
	if got[0].B != testnet.ClientPrefix.String() {
		t.Errorf("destination = %q, want %q", got[0].B, testnet.ClientPrefix)
	}

	// Router level: the backbone path nyc-per1 → chi-per1.
	rts, err := n.View.Expand(sc, locus.Router, testnet.T0)
	if err != nil {
		t.Fatal(err)
	}
	if g := keys(rts); !contains(g, "nyc-per1") || !contains(g, "chi-per1") {
		t.Errorf("router path = %v", g)
	}

	// Unregistered server errors.
	if _, err := n.View.Expand(locus.Between(locus.ServerClient, "nope", "agent-1"), locus.Router, testnet.T0); err == nil {
		t.Error("unregistered server accepted")
	}
}

func TestEgressChangeAfterWithdraw(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	t1 := testnet.T0.Add(2 * time.Hour)
	if err := n.BGP.Withdraw(t1, testnet.ClientPrefix, "chi-per1"); err != nil {
		t.Fatal(err)
	}
	eg, err := n.View.EgressFor("nyc-per1", "agent-1", t1.Add(-time.Minute))
	if err != nil || eg != "chi-per1" {
		t.Fatalf("egress before withdraw = %q, %v", eg, err)
	}
	eg, err = n.View.EgressFor("nyc-per1", "agent-1", t1.Add(time.Minute))
	if err != nil || eg != "wdc-per1" {
		t.Fatalf("egress after withdraw = %q, %v", eg, err)
	}
	if _, err := n.View.EgressFor("nyc-per1", "unknown-agent", testnet.T0); err == nil {
		t.Error("unknown client accepted")
	}
}

// related reports whether two locations are spatially related at join
// level at time at: their expansions intersect.
func related(v *netstate.View, a, b locus.Location, level locus.Type, at time.Time) (bool, error) {
	ea, err := v.Expand(a, level, at)
	if err != nil {
		return false, err
	}
	eb, err := v.Expand(b, level, at)
	if err != nil {
		return false, err
	}
	for _, x := range ea {
		for _, y := range eb {
			if x == y {
				return true, nil
			}
		}
	}
	return false, nil
}

func TestRelated(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	sc := locus.Between(locus.ServerClient, "cdn-nyc-s1", "agent-1")
	// The nyc→chi shortest paths ride both planes directly, so the
	// ingress uplink interface is on path and the chi core-pair link is
	// not.
	upIfc := locus.Between(locus.Interface, "nyc-per1", "to-nyc-cr1")
	rel, err := related(n.View, sc, upIfc, locus.Interface, testnet.T0)
	if err != nil || !rel {
		t.Errorf("uplink interface should relate to CDN span: %v, %v", rel, err)
	}
	offIfc := locus.Between(locus.Interface, "wdc-cr1", "to-wdc-cr2")
	rel, err = related(n.View, sc, offIfc, locus.Interface, testnet.T0)
	if err != nil || rel {
		t.Errorf("off-path interface should not relate: %v, %v", rel, err)
	}
	intraPoP := locus.Between(locus.Interface, "chi-cr1", "to-chi-cr2")
	rel, err = related(n.View, sc, intraPoP, locus.Interface, testnet.T0)
	if err != nil || rel {
		t.Errorf("intra-PoP core link should not relate: %v, %v", rel, err)
	}
	// Same-router join: CPU event on chi-per1 vs adjacency on chi-per1.
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())
	rel, err = related(n.View, adj, locus.At(locus.Router, "chi-per1"), locus.Router, testnet.T0)
	if err != nil || !rel {
		t.Errorf("router-level join failed: %v, %v", rel, err)
	}
	rel, err = related(n.View, adj, locus.At(locus.Router, "nyc-per1"), locus.Router, testnet.T0)
	if err != nil || rel {
		t.Errorf("cross-router join should fail: %v, %v", rel, err)
	}
}

func TestExpandLineCard(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	card := locus.Between(locus.LineCard, "nyc-per1", "1")
	got, err := n.View.Expand(card, locus.Interface, testnet.T0)
	if err != nil {
		t.Fatal(err)
	}
	// Card 1 of nyc-per1 carries the two uplink ports.
	if len(got) != 2 {
		t.Errorf("card interfaces = %v", keys(got))
	}
	if _, err := n.View.Expand(locus.Between(locus.LineCard, "nyc-per1", "9"), locus.Interface, testnet.T0); err == nil {
		t.Error("unknown card accepted")
	}
	got, err = n.View.Expand(card, locus.Router, testnet.T0)
	if err != nil || len(got) != 1 || got[0].A != "nyc-per1" {
		t.Errorf("card→router = %v, %v", got, err)
	}
}

func TestUnsupportedConversion(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	if _, err := n.View.Expand(locus.At(locus.Layer1Device, "mesh-nyc-cr1"), locus.Router, testnet.T0); err == nil {
		t.Error("layer1→router should be unsupported")
	}
	if _, err := n.View.Expand(locus.At(locus.Router, "nyc-cr1"), locus.ServerClient, testnet.T0); err == nil {
		t.Error("router→server:client should be unsupported")
	}
}
