// Package netmodel defines the network topology entities underlying the
// G-RCA spatial model: routers, line cards, interfaces, logical (layer-3)
// links, physical circuits, and layer-1 devices, together with the
// containment and cross-layer associations of Fig. 2 of the paper.
//
// The model mirrors what the paper extracts from daily router-configuration
// snapshots and from an external layer-1 inventory database:
//
//   - a router consists of a set of line cards, which comprise interfaces
//     (§II-B item 6);
//   - a point-to-point logical link is associated with its attached routers
//     by matching interface addresses to a /30 network (item 4);
//   - a logical link may map to more than one physical link (APS, MLPPP
//     bundles; item 5);
//   - physical links map to the layer-1 devices in between (item 7).
package netmodel

import (
	"fmt"
	"net/netip"
	"sort"
)

// Role classifies a router's position in the ISP topology.
type Role uint8

const (
	// RoleCore routers form the backbone within and between PoPs.
	RoleCore Role = iota
	// RoleAggregation routers sit between core and provider edge.
	RoleAggregation
	// RoleProviderEdge routers (PERs) terminate customer attachments.
	RoleProviderEdge
	// RoleCustomer routers are outside the ISP's management domain.
	RoleCustomer
	// RoleCDN routers attach CDN data-center server farms to the backbone.
	RoleCDN
)

var roleNames = [...]string{"core", "aggregation", "provider-edge", "customer", "cdn"}

// String returns the lower-case role name.
func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("netmodel.Role(%d)", uint8(r))
}

// Router is one routing element. Customer routers are modeled too (the BGP
// application diagnoses sessions toward them) but carry no line cards.
type Router struct {
	Name     string // canonical name, e.g. "nyc-per3"
	PoP      string // point of presence, e.g. "nyc"
	Role     Role
	Loopback netip.Addr
	// TZName is the IANA-style zone the device stamps its syslog in. The
	// paper calls out that raw timestamps mix device-local time, provider
	// network time, and GMT; the collector normalizes using this.
	TZName string

	Cards []*LineCard
}

// LineCard is one slot in a router chassis.
type LineCard struct {
	Router *Router
	Slot   int
	Ports  []*Interface
}

// ID returns the canonical "router:slot" identifier of the card.
func (c *LineCard) ID() string { return fmt.Sprintf("%s:%d", c.Router.Name, c.Slot) }

// Interface is a router port. If it terminates a logical link inside the
// ISP, Link is set; if it faces a customer router, Peer names the customer
// device and PeerIP its address on the shared /30.
type Interface struct {
	Router *Router
	Card   *LineCard
	Name   string       // e.g. "so-3/0/1"
	Addr   netip.Prefix // the /30 (or /31) this end is numbered from
	IP     netip.Addr   // this end's address within Addr

	Link *LogicalLink // internal link, nil for customer-facing ports

	CustomerFacing bool
	Peer           string     // customer router name (customer-facing only)
	PeerIP         netip.Addr // customer-side address (customer-facing only)

	// Uplink marks a provider-edge port toward the backbone (the paper's
	// "uplink" footnote: the link connecting an access router to a core
	// network router).
	Uplink bool
}

// LogicalLink is a layer-3 point-to-point adjacency between two interfaces
// inside the ISP. Phys lists the physical circuits realizing it (more than
// one under APS protection or MLPPP bundling).
type LogicalLink struct {
	ID   string
	A, B *Interface
	Phys []*PhysicalLink
}

// Other returns the far-end interface as seen from r, or nil if r is not an
// endpoint of the link.
func (l *LogicalLink) Other(r string) *Interface {
	switch {
	case l.A.Router.Name == r:
		return l.B
	case l.B.Router.Name == r:
		return l.A
	}
	return nil
}

// L1Kind distinguishes the layer-1 technologies of the paper's event
// catalogue (SONET restoration vs regular/fast optical-mesh restoration).
type L1Kind uint8

const (
	// L1SONET marks SONET-ring elements (APS-protected circuits).
	L1SONET L1Kind = iota
	// L1OpticalMesh marks optical-mesh elements (mesh restoration).
	L1OpticalMesh
)

// String returns the lower-case kind name.
func (k L1Kind) String() string {
	if k == L1SONET {
		return "sonet"
	}
	return "optical-mesh"
}

// PhysicalLink is one circuit carrying (part of) a logical link across a
// chain of layer-1 devices.
type PhysicalLink struct {
	ID      string
	Kind    L1Kind
	Logical *LogicalLink
	L1      []*L1Device
}

// L1Device is a SONET or optical-mesh network element.
type L1Device struct {
	Name string
	Kind L1Kind
}

// Topology is the full network inventory. It is immutable after Build; the
// time-varying aspects of the dependency model (routing, configuration
// changes) live in the ospf, bgp, and netstate packages.
type Topology struct {
	Routers map[string]*Router
	Links   map[string]*LogicalLink
	Phys    map[string]*PhysicalLink
	L1      map[string]*L1Device

	byIP map[netip.Addr]*Interface // interface address → interface
}

// NewTopology returns an empty topology ready for AddRouter/AddLink calls.
func NewTopology() *Topology {
	return &Topology{
		Routers: map[string]*Router{},
		Links:   map[string]*LogicalLink{},
		Phys:    map[string]*PhysicalLink{},
		L1:      map[string]*L1Device{},
		byIP:    map[netip.Addr]*Interface{},
	}
}

// AddRouter registers r. It returns an error on duplicate names, which in
// the real system would indicate a normalization failure upstream.
func (t *Topology) AddRouter(r *Router) error {
	if _, dup := t.Routers[r.Name]; dup {
		return fmt.Errorf("netmodel: duplicate router %q", r.Name)
	}
	t.Routers[r.Name] = r
	return nil
}

// AddCard appends a new line card to r and returns it.
func (t *Topology) AddCard(r *Router) *LineCard {
	c := &LineCard{Router: r, Slot: len(r.Cards)}
	r.Cards = append(r.Cards, c)
	return c
}

// AddInterface creates an interface on card c and indexes its addressing.
func (t *Topology) AddInterface(c *LineCard, name string, prefix netip.Prefix, ip netip.Addr) (*Interface, error) {
	ifc := &Interface{Router: c.Router, Card: c, Name: name, Addr: prefix, IP: ip}
	if _, dup := t.byIP[ip]; dup && ip.IsValid() {
		return nil, fmt.Errorf("netmodel: duplicate interface address %v", ip)
	}
	c.Ports = append(c.Ports, ifc)
	if ip.IsValid() {
		t.byIP[ip] = ifc
	}
	return ifc, nil
}

// Connect creates the logical link between interfaces a and b. Both must be
// numbered from the same /30; this mirrors the paper's item 4 association.
func (t *Topology) Connect(id string, a, b *Interface) (*LogicalLink, error) {
	if _, dup := t.Links[id]; dup {
		return nil, fmt.Errorf("netmodel: duplicate link %q", id)
	}
	if a.Addr.Masked() != b.Addr.Masked() {
		return nil, fmt.Errorf("netmodel: link %q endpoints %s and %s not on a shared subnet", id, a.Addr, b.Addr)
	}
	l := &LogicalLink{ID: id, A: a, B: b}
	a.Link, b.Link = l, l
	t.Links[id] = l
	return l, nil
}

// AddPhysical registers a physical circuit for link l across the given
// layer-1 devices (created on first reference).
func (t *Topology) AddPhysical(id string, l *LogicalLink, kind L1Kind, l1names ...string) *PhysicalLink {
	p := &PhysicalLink{ID: id, Kind: kind, Logical: l}
	for _, n := range l1names {
		d, ok := t.L1[n]
		if !ok {
			d = &L1Device{Name: n, Kind: kind}
			t.L1[n] = d
		}
		p.L1 = append(p.L1, d)
	}
	l.Phys = append(l.Phys, p)
	t.Phys[id] = p
	return p
}

// InterfaceByName returns the named interface on the named router.
func (t *Topology) InterfaceByName(router, ifname string) (*Interface, bool) {
	r, ok := t.Routers[router]
	if !ok {
		return nil, false
	}
	for _, c := range r.Cards {
		for _, p := range c.Ports {
			if p.Name == ifname {
				return p, true
			}
		}
	}
	return nil, false
}

// InterfaceForNeighborIP implements the paper's "Router:NeighborIP →
// Interface" conversion: it finds the interface on the named router whose
// /30 contains ip. This is how a BGP or PIM adjacency identified by a
// neighbor address is tied to the physical attachment.
func (t *Topology) InterfaceForNeighborIP(router string, ip netip.Addr) (*Interface, bool) {
	r, ok := t.Routers[router]
	if !ok {
		return nil, false
	}
	for _, c := range r.Cards {
		for _, p := range c.Ports {
			if p.Addr.IsValid() && p.Addr.Masked().Contains(ip) && p.IP != ip {
				return p, true
			}
		}
	}
	return nil, false
}

// InterfaceByIP returns the interface numbered with exactly ip.
func (t *Topology) InterfaceByIP(ip netip.Addr) (*Interface, bool) {
	i, ok := t.byIP[ip]
	return i, ok
}

// RouterNames returns all router names sorted, for deterministic iteration.
// Each call allocates and sorts a new slice of every name, so a caller that
// iterates in a loop should hoist the call out of it.
func (t *Topology) RouterNames() []string {
	names := make([]string, 0, len(t.Routers))
	for n := range t.Routers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LinkIDs returns all logical link IDs sorted. Like RouterNames, each call
// allocates and sorts a new slice; hoist it out of loops.
func (t *Topology) LinkIDs() []string {
	ids := make([]string, 0, len(t.Links))
	for id := range t.Links {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Layer1For returns the layer-1 devices underlying a logical link, the
// paper's cross-layer conversion (items 5 and 7 combined).
func (t *Topology) Layer1For(l *LogicalLink) []*L1Device {
	var out []*L1Device
	seen := map[string]bool{}
	for _, p := range l.Phys {
		for _, d := range p.L1 {
			if !seen[d.Name] {
				seen[d.Name] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// Uplinks returns the uplink interfaces of a provider-edge router.
func (t *Topology) Uplinks(router string) []*Interface {
	r, ok := t.Routers[router]
	if !ok {
		return nil
	}
	var out []*Interface
	for _, c := range r.Cards {
		for _, p := range c.Ports {
			if p.Uplink {
				out = append(out, p)
			}
		}
	}
	return out
}
