package netmodel

import (
	"net/netip"
	"testing"
)

// buildTestTopo constructs a small topology:
//
//	r1(core) --- l1 --- r2(core) --- l2 --- r3(per) --- customer cust1
//
// l1 rides two SONET circuits (APS pair), l2 one optical-mesh circuit.
func buildTestTopo(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	mk := func(name, pop string, role Role, loop string) *Router {
		r := &Router{Name: name, PoP: pop, Role: role, Loopback: netip.MustParseAddr(loop), TZName: "UTC"}
		if err := topo.AddRouter(r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := mk("nyc-cr1", "nyc", RoleCore, "10.255.0.1")
	r2 := mk("chi-cr1", "chi", RoleCore, "10.255.0.2")
	r3 := mk("chi-per1", "chi", RoleProviderEdge, "10.255.0.3")
	mk("cust1", "ext", RoleCustomer, "192.0.2.1")

	c1 := topo.AddCard(r1)
	c2 := topo.AddCard(r2)
	c2b := topo.AddCard(r2)
	c3 := topo.AddCard(r3)

	p30a := netip.MustParsePrefix("10.0.0.0/30")
	i1, err := topo.AddInterface(c1, "so-0/0/0", p30a, netip.MustParseAddr("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	i2, err := topo.AddInterface(c2, "so-0/0/0", p30a, netip.MustParseAddr("10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	p30b := netip.MustParsePrefix("10.0.0.4/30")
	i3, _ := topo.AddInterface(c2b, "so-1/0/0", p30b, netip.MustParseAddr("10.0.0.5"))
	i4, _ := topo.AddInterface(c3, "so-0/0/0", p30b, netip.MustParseAddr("10.0.0.6"))
	i4.Uplink = true

	p30c := netip.MustParsePrefix("10.1.0.0/30")
	i5, _ := topo.AddInterface(c3, "se-0/1/0", p30c, netip.MustParseAddr("10.1.0.1"))
	i5.CustomerFacing = true
	i5.Peer = "cust1"
	i5.PeerIP = netip.MustParseAddr("10.1.0.2")

	l1, err := topo.Connect("l1", i1, i2)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := topo.Connect("l2", i3, i4)
	if err != nil {
		t.Fatal(err)
	}
	topo.AddPhysical("l1-aps-w", l1, L1SONET, "sonet-n1", "sonet-n2")
	topo.AddPhysical("l1-aps-p", l1, L1SONET, "sonet-n1", "sonet-n3")
	topo.AddPhysical("l2-c1", l2, L1OpticalMesh, "mesh-a", "mesh-b")
	return topo
}

func TestTopologyBasics(t *testing.T) {
	topo := buildTestTopo(t)
	if got := len(topo.Routers); got != 4 {
		t.Fatalf("routers = %d, want 4", got)
	}
	if _, ok := topo.InterfaceByName("nyc-cr1", "so-0/0/0"); !ok {
		t.Error("InterfaceByName failed")
	}
	if _, ok := topo.InterfaceByName("nyc-cr1", "nope"); ok {
		t.Error("InterfaceByName found nonexistent interface")
	}
	if _, ok := topo.InterfaceByName("nope", "so-0/0/0"); ok {
		t.Error("InterfaceByName found interface on nonexistent router")
	}
	names := topo.RouterNames()
	if len(names) != 4 || names[0] > names[1] {
		t.Errorf("RouterNames not sorted: %v", names)
	}
}

func TestDuplicateDetection(t *testing.T) {
	topo := buildTestTopo(t)
	if err := topo.AddRouter(&Router{Name: "nyc-cr1"}); err == nil {
		t.Error("duplicate router accepted")
	}
	r := topo.Routers["nyc-cr1"]
	c := r.Cards[0]
	if _, err := topo.AddInterface(c, "dup", netip.MustParsePrefix("10.9.0.0/30"), netip.MustParseAddr("10.0.0.1")); err == nil {
		t.Error("duplicate interface IP accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	topo := buildTestTopo(t)
	i1, _ := topo.InterfaceByName("nyc-cr1", "so-0/0/0")
	i4, _ := topo.InterfaceByName("chi-per1", "so-0/0/0")
	if _, err := topo.Connect("bad", i1, i4); err == nil {
		t.Error("Connect accepted endpoints on different subnets")
	}
	i2, _ := topo.InterfaceByName("chi-cr1", "so-0/0/0")
	if _, err := topo.Connect("l1", i1, i2); err == nil {
		t.Error("Connect accepted duplicate link ID")
	}
}

func TestNeighborIPConversion(t *testing.T) {
	topo := buildTestTopo(t)
	// The customer neighbor 10.1.0.2 should resolve to the customer-facing
	// interface se-0/1/0 on chi-per1 (paper §II-B item 2).
	ifc, ok := topo.InterfaceForNeighborIP("chi-per1", netip.MustParseAddr("10.1.0.2"))
	if !ok {
		t.Fatal("InterfaceForNeighborIP failed")
	}
	if ifc.Name != "se-0/1/0" || !ifc.CustomerFacing {
		t.Errorf("wrong interface: %+v", ifc)
	}
	// Must not match the interface's own address.
	if _, ok := topo.InterfaceForNeighborIP("chi-per1", netip.MustParseAddr("10.1.0.1")); ok {
		t.Error("matched own address as neighbor")
	}
	if _, ok := topo.InterfaceForNeighborIP("chi-per1", netip.MustParseAddr("172.16.0.1")); ok {
		t.Error("matched unrelated address")
	}
	if _, ok := topo.InterfaceForNeighborIP("nope", netip.MustParseAddr("10.1.0.2")); ok {
		t.Error("matched on unknown router")
	}
}

func TestCrossLayerMapping(t *testing.T) {
	topo := buildTestTopo(t)
	l1 := topo.Links["l1"]
	if len(l1.Phys) != 2 {
		t.Fatalf("l1 physical circuits = %d, want 2 (APS pair)", len(l1.Phys))
	}
	devs := topo.Layer1For(l1)
	if len(devs) != 3 { // sonet-n1 shared between working and protect
		t.Errorf("layer-1 devices for l1 = %d, want 3 (deduplicated)", len(devs))
	}
	l2 := topo.Links["l2"]
	if devs := topo.Layer1For(l2); len(devs) != 2 {
		t.Errorf("layer-1 devices for l2 = %d, want 2", len(devs))
	}
}

func TestLinkOther(t *testing.T) {
	topo := buildTestTopo(t)
	l1 := topo.Links["l1"]
	if o := l1.Other("nyc-cr1"); o == nil || o.Router.Name != "chi-cr1" {
		t.Error("Other from A end wrong")
	}
	if o := l1.Other("chi-cr1"); o == nil || o.Router.Name != "nyc-cr1" {
		t.Error("Other from B end wrong")
	}
	if o := l1.Other("chi-per1"); o != nil {
		t.Error("Other matched non-endpoint")
	}
}

func TestUplinks(t *testing.T) {
	topo := buildTestTopo(t)
	ups := topo.Uplinks("chi-per1")
	if len(ups) != 1 || ups[0].Name != "so-0/0/0" {
		t.Errorf("Uplinks = %v", ups)
	}
	if ups := topo.Uplinks("nyc-cr1"); len(ups) != 0 {
		t.Errorf("core router has uplinks: %v", ups)
	}
	if ups := topo.Uplinks("unknown"); ups != nil {
		t.Errorf("unknown router uplinks = %v", ups)
	}
}

func TestAliasTable(t *testing.T) {
	topo := buildTestTopo(t)
	at := NewAliasTable(topo)
	cases := []string{"nyc-cr1", "NYC-CR1", "nyc-cr1.net.example.com", "10.255.0.1", "  nyc-cr1 "}
	for _, ref := range cases {
		got, err := at.Canonical(ref)
		if err != nil || got != "nyc-cr1" {
			t.Errorf("Canonical(%q) = %q, %v", ref, got, err)
		}
	}
	if _, err := at.Canonical("no-such-device"); err == nil {
		t.Error("Canonical accepted unknown reference")
	}
	if _, err := at.Canonical("198.51.100.77"); err == nil {
		t.Error("Canonical accepted unknown IP")
	}
	at.Add("CIRCUIT-00042", "chi-per1")
	if got, _ := at.Canonical("circuit-00042"); got != "chi-per1" {
		t.Error("custom alias not resolved case-insensitively")
	}
	if name, ok := at.CanonicalIP(netip.MustParseAddr("10.255.0.2")); !ok || name != "chi-cr1" {
		t.Error("CanonicalIP failed")
	}
}

func TestLineCardID(t *testing.T) {
	topo := buildTestTopo(t)
	r := topo.Routers["chi-cr1"]
	if id := r.Cards[1].ID(); id != "chi-cr1:1" {
		t.Errorf("card ID = %q", id)
	}
	i, _ := topo.InterfaceByName("chi-cr1", "so-1/0/0")
	if i.Card.Slot != 1 {
		t.Errorf("interface on wrong card slot %d", i.Card.Slot)
	}
}

func TestRoleString(t *testing.T) {
	if RoleProviderEdge.String() != "provider-edge" {
		t.Error("RoleProviderEdge name wrong")
	}
	if Role(99).String() == "" {
		t.Error("out-of-range role should still render")
	}
}
