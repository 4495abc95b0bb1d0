// Package netstate reconstructs the "network condition" at a point in
// history (paper §II-B): it joins the static topology inventory with the
// time-varying OSPF and BGP simulations and exposes the conversion
// utilities that let the spatial model expand an event location into the
// set of network elements supporting the service at that time.
//
// The central operation is View.Expand, which converts a Location into the
// set of locations of a target type ("join level") at a given time. A
// symptom and a diagnostic event are spatially joined when their
// expansions at the rule's join level intersect.
package netstate

import (
	"fmt"
	"net/netip"
	"time"

	"grca/internal/bgp"
	"grca/internal/epoch"
	"grca/internal/locus"
	"grca/internal/netmodel"
	"grca/internal/obs"
	"grca/internal/ospf"
)

// Conversion-utility metrics: Expand drives the spatial joins that
// dominate CDN diagnosis latency (§III-B.2), so its cache hit rate and
// the fan-out of what it computes are the first read on a slow diagnosis;
// the entries gauge counts what its memo holds.
var (
	mExpandHits    = obs.GetCounter("netstate.expand.cache.hits")
	mExpandMisses  = obs.GetCounter("netstate.expand.cache.misses")
	mExpandEntries = obs.GetGauge("netstate.expand.cache.entries")
	mExpandErrors  = obs.GetCounter("netstate.expand.errors")
	mExpandFanout  = obs.GetHistogram("netstate.expand.locations", obs.SizeBuckets)
	mEgressFor     = obs.GetCounter("netstate.egressfor")
)

// View is the queryable network condition. Once the registration calls
// are done it is safe for concurrent readers, who share its expansion
// cache.
type View struct {
	Topo *netmodel.Topology
	OSPF *ospf.Sim
	BGP  *bgp.Sim

	serverNode   map[string]string     // CDN server → CDN node (site)
	serverRouter map[string]string     // CDN server or node → attachment router
	clientAddr   map[string]netip.Addr // measurement agent / source → address
	clientIngr   map[string]string     // agent/source → ingress router, when known from config

	// expansions is Expand's memo for one pair of (OSPF, BGP) clock
	// generations. CDN expansions run the BGP and OSPF simulations, which
	// dominate diagnosis latency (§III-B.2); keys are comparable structs,
	// so the hot path formats no strings.
	expansions *epoch.Memo[[2]int64, expandKey, []locus.Location]
}

// expandKey identifies one memoized expansion, valid for every instant of
// the epoch (see Epoch). A conversion that reads no routing state holds
// for every instant, so its key carries the zero Epoch (see routed).
type expandKey struct {
	loc   locus.Location
	level locus.Type
	epoch Epoch
}

// Epoch identifies an equivalence class of instants for spatial
// expansion: the topology is static, so Expand(loc, level, t) depends on t
// only through the OSPF weight state and the BGP RIB. Two instants with
// equal Epochs yield provably identical expansions for every location and
// level, which is what lets Expand memoize its results per epoch and share
// them across every consumer of the view.
type Epoch struct {
	OSPF int
	BGP  int
}

// EpochAt returns the composed routing epoch of time t.
func (v *View) EpochAt(t time.Time) Epoch {
	return Epoch{OSPF: v.OSPF.EpochAt(t), BGP: v.BGP.EpochAt(t)}
}

// routed reports whether expanding a location of type from to level can
// read routing state: a span resolved through BGP or OSPF, or an
// adjacency whose far end is another ISP router. Every other conversion
// is a lookup in the static topology and registrations, the same at
// every instant; so is an identity, which expand answers before it looks
// at the type (Ingress:Destination excepted, since it normalizes its
// destination through the RIB).
func routed(from, level locus.Type) bool {
	if from == level && level != locus.IngressDestination {
		return false
	}
	switch from {
	case locus.RouterNeighbor, locus.IngressEgress, locus.IngressDestination,
		locus.ServerClient, locus.SourceDestination, locus.SourceIngress:
		return true
	}
	return false
}

// NewView assembles a view over the three routing/topology substrates.
func NewView(topo *netmodel.Topology, o *ospf.Sim, b *bgp.Sim) *View {
	return &View{
		Topo:         topo,
		OSPF:         o,
		BGP:          b,
		serverNode:   map[string]string{},
		serverRouter: map[string]string{},
		clientAddr:   map[string]netip.Addr{},
		clientIngr:   map[string]string{},
		expansions:   epoch.NewMemo[[2]int64, expandKey, []locus.Location](mExpandHits, mExpandMisses, mExpandEntries),
	}
}

// RegisterServer declares a CDN server hosted at node and attached to the
// network through router. The node itself is registered with the same
// attachment so node-level events expand consistently.
func (v *View) RegisterServer(server, node, router string) {
	v.expansions.Drop()
	v.serverNode[server] = node
	v.serverRouter[server] = router
	v.serverRouter[node] = router
}

// RegisterClient declares an external measurement agent or traffic source
// with its representative address; ingress names the ISP ingress router
// when it is known from configuration (e.g. a data-center attachment), and
// may be empty when only routing determines it.
func (v *View) RegisterClient(name string, addr netip.Addr, ingress string) {
	v.expansions.Drop()
	v.clientAddr[name] = addr
	if ingress != "" {
		v.clientIngr[name] = ingress
	}
}

// ServerRouter returns the attachment router of a CDN server or node.
//
//lint:ignore deadcode TestClientAddrAndServerRouterAccessors reads the registered attachment router
func (v *View) ServerRouter(server string) (string, bool) {
	r, ok := v.serverRouter[server]
	return r, ok
}

// EgressFor emulates the BGP decision process from ingress toward the
// named client at time t and returns the egress router.
func (v *View) EgressFor(ingress, client string, t time.Time) (string, error) {
	mEgressFor.Inc()
	addr, ok := v.clientAddr[client]
	if !ok {
		if a, err := netip.ParseAddr(client); err == nil {
			addr = a
		} else {
			return "", fmt.Errorf("netstate: unknown client %q", client)
		}
	}
	r, err := v.BGP.BestEgress(ingress, addr, t)
	if err != nil {
		return "", err
	}
	return r.Egress, nil
}

// Expand converts loc into the set of locations of type level that support
// it at time t. Expansions that require routing (span locations, internal
// adjacencies) answer against the reconstructed network condition at t.
// Unsupported conversions return an error so misconfigured rules surface
// loudly instead of silently never joining.
//
// Results, errors included, are memoized per (loc, level, EpochAt(t)) in
// one table shared by every caller of the view — the engines of all
// applications, drill-down, the Correlation Tester — so the returned
// slice must be treated as read-only. A conversion that reads no routing
// state is memoized once for every epoch.
func (v *View) Expand(loc locus.Location, level locus.Type, t time.Time) ([]locus.Location, error) {
	gens := [2]int64{v.OSPF.Clock().Generation(), v.BGP.Clock().Generation()}
	key := expandKey{loc: loc, level: level}
	if routed(loc.Type, level) {
		key.epoch = v.EpochAt(t)
	}
	return v.expansions.Get(gens, key,
		func() ([]locus.Location, error) {
			locs, err := v.expand(loc, level, t)
			if err != nil {
				mExpandErrors.Inc()
			} else {
				mExpandFanout.Observe(float64(len(locs)))
			}
			return locs, err
		})
}

func (v *View) expand(loc locus.Location, level locus.Type, t time.Time) ([]locus.Location, error) {
	if loc.Type == level && level != locus.IngressDestination {
		// Identity — except Ingress:Destination, whose destination element
		// must be normalized to the matched BGP prefix so that locations
		// produced by different systems compare equal.
		return []locus.Location{loc}, nil
	}
	switch loc.Type {
	case locus.Router:
		return v.expandRouter(loc.A, level)
	case locus.Interface:
		ifc, ok := v.Topo.InterfaceByName(loc.A, loc.B)
		if !ok {
			return nil, fmt.Errorf("netstate: unknown interface %s", loc)
		}
		return v.expandInterface(ifc, level)
	case locus.LineCard:
		return v.expandLineCard(loc, level)
	case locus.LogicalLink:
		l, ok := v.Topo.Links[loc.A]
		if !ok {
			return nil, fmt.Errorf("netstate: unknown link %s", loc)
		}
		return v.expandLink(l, level)
	case locus.PhysicalLink:
		p, ok := v.Topo.Phys[loc.A]
		if !ok {
			return nil, fmt.Errorf("netstate: unknown physical link %s", loc)
		}
		return v.expandPhysical(p, level)
	case locus.Layer1Device:
		return v.expandLayer1(loc.A, level)
	case locus.RouterNeighbor:
		return v.expandRouterNeighbor(loc, level, t)
	case locus.IngressEgress:
		return v.expandPath(loc.A, loc.B, level, t)
	case locus.IngressDestination:
		return v.expandIngressDestination(loc, level, t)
	case locus.ServerClient:
		return v.expandServerClient(loc, level, t)
	case locus.SourceDestination:
		return v.expandSourceDestination(loc, level, t)
	case locus.SourceIngress:
		return v.expandSourceIngress(loc, level, t)
	case locus.EgressDestination:
		return v.expandEgressDestination(loc, level)
	case locus.Server:
		return v.expandServer(loc.A, level)
	case locus.PoP:
		if level == locus.PoP {
			return []locus.Location{loc}, nil
		}
	}
	return nil, fmt.Errorf("netstate: no conversion from %v to %v", loc.Type, level)
}

func (v *View) expandRouter(name string, level locus.Type) ([]locus.Location, error) {
	r, ok := v.Topo.Routers[name]
	if !ok {
		return nil, fmt.Errorf("netstate: unknown router %q", name)
	}
	switch level {
	case locus.Router:
		return []locus.Location{locus.At(locus.Router, name)}, nil
	case locus.PoP:
		return []locus.Location{locus.At(locus.PoP, r.PoP)}, nil
	case locus.LineCard:
		var out []locus.Location
		for _, c := range r.Cards {
			out = append(out, locus.Between(locus.LineCard, name, fmt.Sprint(c.Slot)))
		}
		return out, nil
	case locus.Interface:
		var out []locus.Location
		for _, c := range r.Cards {
			for _, p := range c.Ports {
				out = append(out, locus.Between(locus.Interface, name, p.Name))
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("netstate: no conversion from router to %v", level)
}

func (v *View) expandInterface(ifc *netmodel.Interface, level locus.Type) ([]locus.Location, error) {
	switch level {
	case locus.Interface:
		return []locus.Location{locus.Between(locus.Interface, ifc.Router.Name, ifc.Name)}, nil
	case locus.Router:
		return []locus.Location{locus.At(locus.Router, ifc.Router.Name)}, nil
	case locus.PoP:
		return []locus.Location{locus.At(locus.PoP, ifc.Router.PoP)}, nil
	case locus.LineCard:
		return []locus.Location{locus.Between(locus.LineCard, ifc.Router.Name, fmt.Sprint(ifc.Card.Slot))}, nil
	case locus.LogicalLink:
		if ifc.Link == nil {
			return nil, nil
		}
		return []locus.Location{locus.At(locus.LogicalLink, ifc.Link.ID)}, nil
	case locus.PhysicalLink:
		if ifc.Link == nil {
			return nil, nil
		}
		var out []locus.Location
		for _, p := range ifc.Link.Phys {
			out = append(out, locus.At(locus.PhysicalLink, p.ID))
		}
		return out, nil
	case locus.Layer1Device:
		if ifc.Link == nil {
			return nil, nil
		}
		var out []locus.Location
		for _, d := range v.Topo.Layer1For(ifc.Link) {
			out = append(out, locus.At(locus.Layer1Device, d.Name))
		}
		return out, nil
	}
	return nil, fmt.Errorf("netstate: no conversion from interface to %v", level)
}

func (v *View) expandLineCard(loc locus.Location, level locus.Type) ([]locus.Location, error) {
	r, ok := v.Topo.Routers[loc.A]
	if !ok {
		return nil, fmt.Errorf("netstate: unknown router %q", loc.A)
	}
	var card *netmodel.LineCard
	for _, c := range r.Cards {
		if fmt.Sprint(c.Slot) == loc.B {
			card = c
			break
		}
	}
	if card == nil {
		return nil, fmt.Errorf("netstate: unknown line card %s", loc)
	}
	switch level {
	case locus.LineCard:
		return []locus.Location{loc}, nil
	case locus.Router:
		return []locus.Location{locus.At(locus.Router, loc.A)}, nil
	case locus.Interface:
		var out []locus.Location
		for _, p := range card.Ports {
			out = append(out, locus.Between(locus.Interface, loc.A, p.Name))
		}
		return out, nil
	}
	return nil, fmt.Errorf("netstate: no conversion from line card to %v", level)
}

func (v *View) expandLink(l *netmodel.LogicalLink, level locus.Type) ([]locus.Location, error) {
	switch level {
	case locus.LogicalLink:
		return []locus.Location{locus.At(locus.LogicalLink, l.ID)}, nil
	case locus.Interface:
		return []locus.Location{
			locus.Between(locus.Interface, l.A.Router.Name, l.A.Name),
			locus.Between(locus.Interface, l.B.Router.Name, l.B.Name),
		}, nil
	case locus.Router:
		return []locus.Location{
			locus.At(locus.Router, l.A.Router.Name),
			locus.At(locus.Router, l.B.Router.Name),
		}, nil
	case locus.PhysicalLink:
		var out []locus.Location
		for _, p := range l.Phys {
			out = append(out, locus.At(locus.PhysicalLink, p.ID))
		}
		return out, nil
	case locus.Layer1Device:
		var out []locus.Location
		for _, d := range v.Topo.Layer1For(l) {
			out = append(out, locus.At(locus.Layer1Device, d.Name))
		}
		return out, nil
	}
	return nil, fmt.Errorf("netstate: no conversion from logical link to %v", level)
}

func (v *View) expandPhysical(p *netmodel.PhysicalLink, level locus.Type) ([]locus.Location, error) {
	switch level {
	case locus.PhysicalLink:
		return []locus.Location{locus.At(locus.PhysicalLink, p.ID)}, nil
	case locus.Layer1Device:
		var out []locus.Location
		for _, d := range p.L1 {
			out = append(out, locus.At(locus.Layer1Device, d.Name))
		}
		return out, nil
	case locus.LogicalLink:
		if p.Logical == nil {
			return nil, nil
		}
		return []locus.Location{locus.At(locus.LogicalLink, p.Logical.ID)}, nil
	}
	return nil, fmt.Errorf("netstate: no conversion from physical link to %v", level)
}

func (v *View) expandLayer1(name string, level locus.Type) ([]locus.Location, error) {
	if level == locus.Layer1Device {
		return []locus.Location{locus.At(locus.Layer1Device, name)}, nil
	}
	return nil, fmt.Errorf("netstate: no conversion from layer-1 device to %v", level)
}

// expandRouterNeighbor handles adjacency locations. When the neighbor is
// identified by an address outside the ISP (an eBGP or PE–CE adjacency),
// the location is anchored at the attachment interface found by the /30
// match of §II-B item 2. When the neighbor names another ISP router (a
// PE–PE PIM adjacency over the backbone), the adjacency depends on both
// endpoints and the routed path between them.
func (v *View) expandRouterNeighbor(loc locus.Location, level locus.Type, t time.Time) ([]locus.Location, error) {
	if _, internal := v.Topo.Routers[loc.B]; internal {
		switch level {
		case locus.RouterNeighbor:
			return []locus.Location{loc}, nil
		case locus.Router:
			out, err := v.expandPath(loc.A, loc.B, level, t)
			if err != nil {
				// Endpoints still matter even if currently unroutable.
				return []locus.Location{locus.At(locus.Router, loc.A), locus.At(locus.Router, loc.B)}, nil
			}
			return out, nil
		default:
			return v.expandPath(loc.A, loc.B, level, t)
		}
	}
	addr, err := netip.ParseAddr(loc.B)
	if err != nil {
		return nil, fmt.Errorf("netstate: neighbor %q is neither a known router nor an address", loc.B)
	}
	switch level {
	case locus.RouterNeighbor:
		return []locus.Location{loc}, nil
	case locus.Router:
		return []locus.Location{locus.At(locus.Router, loc.A)}, nil
	case locus.PoP:
		return v.expandRouter(loc.A, level)
	}
	ifc, ok := v.Topo.InterfaceForNeighborIP(loc.A, addr)
	if !ok {
		return nil, nil // adjacency not resolvable to an attachment: joins nothing
	}
	return v.expandInterface(ifc, level)
}

// expandPath expands a router-pair span to the elements on all shortest
// paths between them at time t (§II-B item 3, including ECMP).
func (v *View) expandPath(a, b string, level locus.Type, t time.Time) ([]locus.Location, error) {
	pe, err := v.OSPF.Elements(a, b, t)
	if err != nil {
		return nil, err
	}
	switch level {
	case locus.Router:
		var out []locus.Location
		for r := range pe.Routers {
			out = append(out, locus.At(locus.Router, r))
		}
		return out, nil
	case locus.LogicalLink:
		var out []locus.Location
		for id := range pe.Links {
			out = append(out, locus.At(locus.LogicalLink, id))
		}
		return out, nil
	case locus.Interface:
		var out []locus.Location
		for id := range pe.Links {
			l := v.Topo.Links[id]
			out = append(out,
				locus.Between(locus.Interface, l.A.Router.Name, l.A.Name),
				locus.Between(locus.Interface, l.B.Router.Name, l.B.Name))
		}
		return out, nil
	case locus.Layer1Device:
		var out []locus.Location
		seen := map[string]bool{}
		for id := range pe.Links {
			for _, d := range v.Topo.Layer1For(v.Topo.Links[id]) {
				if !seen[d.Name] {
					seen[d.Name] = true
					out = append(out, locus.At(locus.Layer1Device, d.Name))
				}
			}
		}
		return out, nil
	case locus.PoP:
		var out []locus.Location
		seen := map[string]bool{}
		for r := range pe.Routers {
			pop := v.Topo.Routers[r].PoP
			if !seen[pop] {
				seen[pop] = true
				out = append(out, locus.At(locus.PoP, pop))
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("netstate: no conversion from router path to %v", level)
}

// expandIngressDestination maps "Ingress:Destination" through the BGP
// table at time t: the destination's egress router is resolved by
// longest-prefix match plus decision-process emulation (§II-B item 1), and
// the span becomes Ingress:Egress for routed levels.
func (v *View) expandIngressDestination(loc locus.Location, level locus.Type, t time.Time) ([]locus.Location, error) {
	if level == locus.IngressDestination {
		return []locus.Location{v.normalizeIngressDestination(loc, t)}, nil
	}
	addr, err := v.resolveAddr(loc.B)
	if err != nil {
		return nil, err
	}
	r, err := v.BGP.BestEgress(loc.A, addr, t)
	if err != nil {
		return nil, nil // no route: nothing inside the network supports it
	}
	if level == locus.IngressEgress {
		return []locus.Location{locus.Between(locus.IngressEgress, loc.A, r.Egress)}, nil
	}
	return v.expandPath(loc.A, r.Egress, level, t)
}

// normalizeIngressDestination rewrites the destination element to the
// matched BGP prefix so that locations produced by different systems (an
// address from a measurement, a prefix from the BGP monitor) compare equal.
func (v *View) normalizeIngressDestination(loc locus.Location, t time.Time) locus.Location {
	if addr, err := v.resolveAddr(loc.B); err == nil {
		if pfx, ok := v.BGP.Lookup(addr, t); ok {
			return locus.Between(locus.IngressDestination, loc.A, pfx.String())
		}
	}
	return loc
}

// resolveAddr turns a destination element (registered client name, address
// literal, or prefix literal) into a representative address.
func (v *View) resolveAddr(s string) (netip.Addr, error) {
	if a, ok := v.clientAddr[s]; ok {
		return a, nil
	}
	if a, err := netip.ParseAddr(s); err == nil {
		return a, nil
	}
	if p, err := netip.ParsePrefix(s); err == nil {
		return p.Addr(), nil
	}
	return netip.Addr{}, fmt.Errorf("netstate: cannot resolve destination %q", s)
}

// expandSourceDestination implements the §II-B item 1 chain for endpoints
// both outside the ISP: the source maps to its ingress router (from
// configuration — e.g. a data-center attachment — as the paper does when
// NetFlow is unavailable), and the remainder proceeds as
// Ingress:Destination through the BGP and OSPF reconstructions.
func (v *View) expandSourceDestination(loc locus.Location, level locus.Type, t time.Time) ([]locus.Location, error) {
	if level == locus.SourceDestination {
		return []locus.Location{loc}, nil
	}
	ingress, ok := v.clientIngr[loc.A]
	if !ok {
		return nil, fmt.Errorf("netstate: source %q has no configured ingress", loc.A)
	}
	switch level {
	case locus.SourceIngress:
		return []locus.Location{locus.Between(locus.SourceIngress, loc.A, ingress)}, nil
	case locus.EgressDestination:
		addr, err := v.resolveAddr(loc.B)
		if err != nil {
			return nil, err
		}
		r, err := v.BGP.BestEgress(ingress, addr, t)
		if err != nil {
			return nil, nil
		}
		return []locus.Location{locus.Between(locus.EgressDestination, r.Egress, loc.B)}, nil
	}
	return v.expandIngressDestination(
		locus.Between(locus.IngressDestination, ingress, loc.B), level, t)
}

// expandSourceIngress anchors at the ingress router (and, when the source
// is a registered client with a resolvable attachment, at its interface).
func (v *View) expandSourceIngress(loc locus.Location, level locus.Type, t time.Time) ([]locus.Location, error) {
	switch level {
	case locus.SourceIngress:
		return []locus.Location{loc}, nil
	case locus.Router:
		return []locus.Location{locus.At(locus.Router, loc.B)}, nil
	case locus.PoP:
		return v.expandRouter(loc.B, level)
	case locus.Interface:
		addr, ok := v.clientAddr[loc.A]
		if !ok {
			return nil, nil
		}
		ifc, found := v.Topo.InterfaceForNeighborIP(loc.B, addr)
		if !found {
			return nil, nil
		}
		return v.expandInterface(ifc, level)
	}
	return nil, fmt.Errorf("netstate: no conversion from source:ingress to %v", level)
}

// expandEgressDestination anchors at the egress router; the destination
// side lies outside the ISP.
func (v *View) expandEgressDestination(loc locus.Location, level locus.Type) ([]locus.Location, error) {
	switch level {
	case locus.EgressDestination:
		return []locus.Location{loc}, nil
	case locus.Router:
		return []locus.Location{locus.At(locus.Router, loc.A)}, nil
	case locus.PoP:
		return v.expandRouter(loc.A, level)
	}
	return nil, fmt.Errorf("netstate: no conversion from egress:destination to %v", level)
}

func (v *View) expandServer(name string, level locus.Type) ([]locus.Location, error) {
	switch level {
	case locus.Server:
		return []locus.Location{locus.At(locus.Server, name)}, nil
	case locus.Router:
		r, ok := v.serverRouter[name]
		if !ok {
			return nil, fmt.Errorf("netstate: unregistered server %q", name)
		}
		return []locus.Location{locus.At(locus.Router, r)}, nil
	}
	return nil, fmt.Errorf("netstate: no conversion from server to %v", level)
}

// expandServerClient maps a CDN measurement span (server, client agent)
// onto the network at time t: the server side resolves to its attachment
// router (the ingress for downstream traffic), the client side to its
// address; routing then determines the egress and the backbone path.
func (v *View) expandServerClient(loc locus.Location, level locus.Type, t time.Time) ([]locus.Location, error) {
	switch level {
	case locus.ServerClient:
		return []locus.Location{loc}, nil
	case locus.Server:
		out := []locus.Location{locus.At(locus.Server, loc.A)}
		if node, ok := v.serverNode[loc.A]; ok {
			out = append(out, locus.At(locus.Server, node))
		}
		return out, nil
	}
	ingress, ok := v.serverRouter[loc.A]
	if !ok {
		return nil, fmt.Errorf("netstate: unregistered server %q", loc.A)
	}
	if level == locus.IngressDestination {
		return []locus.Location{v.normalizeIngressDestination(
			locus.Between(locus.IngressDestination, ingress, loc.B), t)}, nil
	}
	addr, err := v.resolveAddr(loc.B)
	if err != nil {
		return nil, err
	}
	r, err := v.BGP.BestEgress(ingress, addr, t)
	if err != nil {
		return nil, nil // destination outside any known route
	}
	if level == locus.IngressEgress {
		return []locus.Location{locus.Between(locus.IngressEgress, ingress, r.Egress)}, nil
	}
	return v.expandPath(ingress, r.Egress, level, t)
}
