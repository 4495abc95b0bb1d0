package simnet

import (
	"fmt"
	"net/netip"

	"grca/internal/netmodel"
)

// Deterministic device-local time zones assigned round-robin across PoPs,
// exercising the collector's timestamp normalization.
var popZones = []string{
	"America/New_York", "America/Chicago", "America/Denver",
	"America/Los_Angeles", "UTC", "Europe/London",
}

// addressing hands out /30 subnets and loopbacks deterministically.
type addressing struct {
	nextSub  int
	nextLoop int
}

func (a *addressing) subnet() (netip.Prefix, netip.Addr, netip.Addr) {
	n := a.nextSub
	a.nextSub++
	base := netip.AddrFrom4([4]byte{10, byte(n >> 14), byte(n >> 6), byte(n << 2)})
	return netip.PrefixFrom(base, 30), base.Next(), base.Next().Next()
}

func (a *addressing) loopback() netip.Addr {
	n := a.nextLoop
	a.nextLoop++
	return netip.AddrFrom4([4]byte{10, 255, byte(n >> 8), byte(n)})
}

// buildTopology constructs the multi-PoP ISP: two core routers per PoP
// connected as parallel planes in a ring across PoPs, PERs dual-homed to
// their PoP's cores, customer attachments over SONET or optical access
// circuits, a CDN node at the first PoP, and peering egresses at the last
// two PoPs announcing the measurement agents' prefixes.
func (d *Dataset) buildTopology() error {
	cfg := d.Config
	topo := netmodel.NewTopology()
	d.Topo = topo
	addr := &addressing{}

	newRouter := func(name, pop string, role netmodel.Role, zone string) (*netmodel.Router, error) {
		r := &netmodel.Router{Name: name, PoP: pop, Role: role, TZName: zone, Loopback: addr.loopback()}
		if err := topo.AddRouter(r); err != nil {
			return nil, err
		}
		return r, nil
	}

	link := func(id string, a, b *netmodel.LineCard, nameA, nameB string) (*netmodel.LogicalLink, error) {
		pfx, ipA, ipB := addr.subnet()
		iA, err := topo.AddInterface(a, nameA, pfx, ipA)
		if err != nil {
			return nil, err
		}
		iB, err := topo.AddInterface(b, nameB, pfx, ipB)
		if err != nil {
			return nil, err
		}
		return topo.Connect(id, iA, iB)
	}

	type popRouters struct {
		cores [2]*netmodel.Router
		pers  []*netmodel.Router
	}
	pops := make([]popRouters, cfg.PoPs)

	// Routers and cards.
	for p := 0; p < cfg.PoPs; p++ {
		pop := d.popName(p)
		zone := popZones[p%len(popZones)]
		for c := 0; c < 2; c++ {
			r, err := newRouter(fmt.Sprintf("%s-cr%d", pop, c+1), pop, netmodel.RoleCore, zone)
			if err != nil {
				return err
			}
			topo.AddCard(r)
			topo.AddCard(r)
			pops[p].cores[c] = r
		}
		for e := 0; e < cfg.PERsPerPoP; e++ {
			r, err := newRouter(fmt.Sprintf("%s-per%d", pop, e+1), pop, netmodel.RoleProviderEdge, zone)
			if err != nil {
				return err
			}
			// Card 0/1: customer-facing; card 2: uplinks.
			topo.AddCard(r)
			topo.AddCard(r)
			topo.AddCard(r)
			pops[p].pers = append(pops[p].pers, r)
		}
	}

	mesh := func(l *netmodel.LogicalLink, devs ...string) {
		d.Topo.AddPhysical(l.ID+"-c1", l, netmodel.L1OpticalMesh, devs...)
	}

	// Intra-PoP core pair links (weight 5) and inter-PoP ring on both
	// planes (weight 10).
	for p := 0; p < cfg.PoPs; p++ {
		pop := d.popName(p)
		l, err := link(pop+"-core", pops[p].cores[0].Cards[0], pops[p].cores[1].Cards[0],
			"to-"+pops[p].cores[1].Name, "to-"+pops[p].cores[0].Name)
		if err != nil {
			return err
		}
		d.weights[l.ID] = 5
		mesh(l, "mesh-"+pop+"-a", "mesh-"+pop+"-b")
		next := (p + 1) % cfg.PoPs
		if cfg.PoPs > 1 && !(cfg.PoPs == 2 && p == 1) {
			for plane := 0; plane < 2; plane++ {
				a, b := pops[p].cores[plane], pops[next].cores[plane]
				id := fmt.Sprintf("%s-%s-p%d", d.popName(p), d.popName(next), plane+1)
				l, err := link(id, a.Cards[1], b.Cards[1], "to-"+b.Name, "to-"+a.Name)
				if err != nil {
					return err
				}
				d.weights[l.ID] = 10
				mesh(l, "mesh-"+a.Name, "mesh-"+b.Name)
			}
		}
	}

	// PER uplinks: dual-homed to both cores of the PoP (weight 5).
	for p := range pops {
		for _, per := range pops[p].pers {
			for c, core := range pops[p].cores {
				id := fmt.Sprintf("%s-up%d", per.Name, c+1)
				l, err := link(id, per.Cards[2], core.Cards[0], "to-"+core.Name, "to-"+per.Name)
				if err != nil {
					return err
				}
				d.weights[l.ID] = 5
				mesh(l, "mesh-"+d.popName(p)+"-agg")
				if o := l.Other(core.Name); o != nil {
					o.Uplink = true
				}
			}
		}
	}

	// Customers. A deterministic fraction are two-site MVPNs: their
	// second site lands on a PER in another PoP.
	mvpnByVRF := map[string]*MVPN{}
	sessionIdx := 0
	for p := range pops {
		for _, per := range pops[p].pers {
			for s := 0; s < cfg.SessionsPerPER; s++ {
				sessionIdx++
				cust := fmt.Sprintf("cust%04d", sessionIdx)
				vrf := ""
				// Pair MVPN sites: every 1/MVPNFraction-th session joins a
				// VRF shared with the "mirror" PER in the next PoP.
				if cfg.PoPs > 1 && d.rng.Float64() < cfg.MVPNFraction {
					vrf = "vrf-" + cust
				}
				cr, err := newRouter(cust, "ext", netmodel.RoleCustomer, "UTC")
				if err != nil {
					return err
				}
				topo.AddCard(cr)
				card := per.Cards[s%2]
				id := fmt.Sprintf("%s-att%d", cust, 1)
				l, err := link(id, card, cr.Cards[0], "cust-"+cust, "to-"+per.Name)
				if err != nil {
					return err
				}
				perIfc := l.Other(cr.Name)
				perIfc.CustomerFacing = true
				perIfc.Peer = cust
				perIfc.PeerIP = l.Other(per.Name).IP
				// Access circuit layer 1: mostly SONET, some optical mesh.
				switch d.rng.Intn(10) {
				case 0:
					topo.AddPhysical(id+"-c1", l, netmodel.L1OpticalMesh,
						"mesh-acc-"+per.Name)
				default:
					topo.AddPhysical(id+"-c1", l, netmodel.L1SONET,
						"sonet-"+per.Name+"-a", "sonet-"+per.Name+"-b")
				}
				d.Sessions = append(d.Sessions, Session{
					PER: per.Name, Interface: perIfc.Name,
					NeighborIP: perIfc.PeerIP, Customer: cust, MVPN: vrf,
				})
				if vrf != "" {
					// Second site: same PER index in the next PoP.
					mp := (p + 1) % cfg.PoPs
					mper := pops[mp].pers[0]
					mvpnByVRF[vrf] = &MVPN{VRF: vrf, PEs: []string{per.Name, mper.Name}}
				}
			}
		}
	}
	for _, s := range d.Sessions {
		if m := mvpnByVRF[s.MVPN]; m != nil {
			d.MVPNs = append(d.MVPNs, *m)
		}
	}

	// CDN node at the first PoP's first PER.
	d.CDNNode = "cdn-" + d.popName(0)
	d.CDNServer = d.CDNNode + "-s1"
	d.CDNRouter = pops[0].pers[0].Name

	// Peering egresses at the last two PoPs (first PER each) announce the
	// agents' prefixes.
	lastA := pops[cfg.PoPs-1].pers[0].Name
	lastB := pops[(cfg.PoPs+cfg.PoPs/2)%cfg.PoPs].pers[0].Name
	if lastB == lastA && cfg.PoPs > 1 {
		lastB = pops[cfg.PoPs-2].pers[0].Name
	}
	d.PeerEgresses = []string{lastA, lastB}

	// Measurement agents, one per /24 in 198.51.x.0/24.
	for a := 0; a < 4; a++ {
		name := fmt.Sprintf("agent-%d", a+1)
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 51, byte(a), 0}), 24)
		d.Agents = append(d.Agents, name)
		d.AgentPrefix[name] = pfx
		d.AgentAddr[name] = netip.AddrFrom4([4]byte{198, 51, byte(a), 10})
	}
	return nil
}

// routersWhere returns the names of the routers keep accepts, sorted.
func (d *Dataset) routersWhere(keep func(*netmodel.Router) bool) []string {
	var out []string
	for _, name := range d.Topo.RouterNames() {
		if keep(d.Topo.Routers[name]) {
			out = append(out, name)
		}
	}
	return out
}
