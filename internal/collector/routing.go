package collector

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"grca/internal/bgp"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/ospf"
)

// LSInfinity is the OSPF metric meaning "do not use" as flooded on the
// wire; it maps to ospf.Infinity in the simulation.
const LSInfinity = 65535

// routerCostWindow groups per-link cost-out (or cost-in) changes on the
// same router into one "Router Cost In/Out" inference when they all land
// within this window (a maintenance costing out the whole router).
const routerCostWindow = 2 * time.Minute

// ospfMonLine ingests the OSPF monitor feed (the OSPFMon of the paper),
// one flooded metric observation per line:
//
//	2010-01-02T03:04:05Z 10.255.0.1 10.0.0.1 metric 10
//	2010-01-02T03:04:05Z 10.255.0.1 10.0.0.1 metric 65535
//	2010-01-01T00:00:00Z 10.255.0.1 10.0.0.1 metric 10 initial
//
// Fields: timestamp (UTC), advertising router's loopback, the link
// interface address, and the flooded metric. Lines flagged "initial"
// belong to the monitor's startup full-LSDB download: they establish the
// baseline weights without generating re-convergence events.
//
// Event inference (Table I): every non-initial change yields an "OSPF
// re-convergence event" at both link interfaces; transitions to LSInfinity
// yield "Link Cost Out/Down"; transitions back yield "Link Cost In/Up";
// and Finalize groups whole-router transitions into "Router Cost In/Out".
func (c *Collector) ospfMonLine(line []byte) error {
	f := c.scr.words(line)
	if len(f) != 5 && !(len(f) == 6 && string(f[5]) == "initial") {
		return fmt.Errorf("want 'ts router ifip metric N [initial]'")
	}
	at, ok := parseRFC3339(f[0])
	if !ok {
		return fmt.Errorf("bad timestamp %q", f[0])
	}
	at, err := feedTime(at, 0)
	if err != nil {
		return err
	}
	if _, ok := c.addrCached(f[1]); !ok {
		return fmt.Errorf("bad router address %q", f[1])
	}
	ifip, ok := c.addrCached(f[2])
	if !ok {
		return fmt.Errorf("bad interface address %q", f[2])
	}
	if string(f[3]) != "metric" {
		return fmt.Errorf("missing metric keyword")
	}
	metric, ok := atoi(f[4])
	if !ok || metric < 0 {
		return fmt.Errorf("bad metric %q", f[4])
	}
	return c.applyOSPFMon(at, ifip, metric, string(f[4]), len(f) == 6)
}

// applyOSPFMon is the back half of OSPFMon parsing: simulation update and
// event inference.
func (c *Collector) applyOSPFMon(at time.Time, ifip netip.Addr, metric int, metricText string, initial bool) error {
	ifc, ok := c.Topo.InterfaceByIP(ifip)
	if !ok || ifc.Link == nil {
		return fmt.Errorf("interface address %v not on any known link", ifip)
	}
	link := ifc.Link

	w := metric
	if metric >= LSInfinity {
		w = ospf.Infinity
	}
	old := c.OSPF.WeightAt(link.ID, at)
	if err := c.OSPF.SetWeight(at, link.ID, w); err != nil {
		return err
	}
	if initial || old == w {
		return nil
	}

	locA := locus.Between(locus.Interface, link.A.Router.Name, link.A.Name)
	locB := locus.Between(locus.Interface, link.B.Router.Name, link.B.Name)
	attrs := map[string]string{"link": link.ID, "metric": metricText}
	for _, loc := range []locus.Location{locA, locB} {
		c.add(event.OSPFReconvergence, at, at, loc, attrs)
	}
	switch {
	case w >= ospf.Infinity && old < ospf.Infinity:
		for _, loc := range []locus.Location{locA, locB} {
			c.add(event.LinkCostOutDown, at, at, loc, attrs)
		}
		ch := ospf.WeightChange{At: at, LinkID: link.ID, Old: old, New: w}
		c.costOut[link.A.Router.Name] = append(c.costOut[link.A.Router.Name], ch)
		c.costOut[link.B.Router.Name] = append(c.costOut[link.B.Router.Name], ch)
	case w < ospf.Infinity && old >= ospf.Infinity:
		for _, loc := range []locus.Location{locA, locB} {
			c.add(event.LinkCostInUp, at, at, loc, attrs)
		}
		ch := ospf.WeightChange{At: at, LinkID: link.ID, Old: old, New: w}
		c.costIn[link.A.Router.Name] = append(c.costIn[link.A.Router.Name], ch)
		c.costIn[link.B.Router.Name] = append(c.costIn[link.B.Router.Name], ch)
	}
	return nil
}

// inferRouterCost runs at Finalize: when every internal link of a router
// was costed out (or in) within routerCostWindow, the per-link changes are
// summarized as one "Router Cost In/Out" event at the router — the
// signature of a whole-router maintenance.
func (c *Collector) inferRouterCost() {
	infer := func(buf map[string][]ospf.WeightChange, direction string) {
		routers := make([]string, 0, len(buf))
		for router := range buf {
			routers = append(routers, router)
		}
		sort.Strings(routers)
		for _, router := range routers {
			changes := buf[router]
			links := c.internalLinkCount(router)
			if links == 0 {
				continue
			}
			sort.Slice(changes, func(i, j int) bool { return changes[i].At.Before(changes[j].At) })
			// Slide a window over the changes; a full-router transition
			// touches every distinct link within the window.
			for i := 0; i < len(changes); {
				seen := map[string]bool{changes[i].LinkID: true}
				j := i + 1
				for j < len(changes) && changes[j].At.Sub(changes[i].At) <= routerCostWindow {
					seen[changes[j].LinkID] = true
					j++
				}
				if len(seen) >= links {
					c.add(event.RouterCostInOut, changes[i].At, changes[j-1].At,
						locus.At(locus.Router, router),
						map[string]string{"direction": direction})
				}
				i = j
			}
		}
	}
	infer(c.costOut, "out")
	infer(c.costIn, "in")
}

// internalLinkCount counts the router's links that participate in the IGP
// (customer attachments do not).
func (c *Collector) internalLinkCount(router string) int {
	r, ok := c.Topo.Routers[router]
	if !ok {
		return 0
	}
	n := 0
	for _, card := range r.Cards {
		for _, p := range card.Ports {
			if p.Link != nil && !p.CustomerFacing {
				if o := p.Link.Other(router); o != nil && !o.CustomerFacing {
					n++
				}
			}
		}
	}
	return n
}

// bgpMonLine ingests the route-reflector update feed, pipe-separated:
//
//	1262304000|A|198.51.100.0/24|10.255.0.6|100|3|0|0
//	1262307600|W|198.51.100.0/24|10.255.0.6
//
// Announce fields: epoch, "A", prefix, egress next-hop loopback, local
// preference, AS-path length, MED, origin. Withdraw: epoch, "W", prefix,
// egress loopback. Egress loopbacks normalize to router names via the
// alias table.
func (c *Collector) bgpMonLine(line []byte) error {
	f := c.scr.split(line, '|')
	if len(f) < 4 {
		return fmt.Errorf("want at least 4 fields")
	}
	epoch, ok := parseInt(f[0])
	if !ok {
		return fmt.Errorf("bad epoch %q", f[0])
	}
	at, err := feedTime(time.Unix(epoch, 0), 0)
	if err != nil {
		return err
	}
	prefix, err := netip.ParsePrefix(string(f[2]))
	if err != nil {
		return fmt.Errorf("bad prefix %q", f[2])
	}
	egress, err := c.canonical(f[3])
	if err != nil {
		return err
	}
	switch string(f[1]) {
	case "W":
		return c.BGP.Withdraw(at, prefix, egress)
	case "A":
		if len(f) != 8 {
			return fmt.Errorf("announce wants 8 fields, got %d", len(f))
		}
		var nums [4]int
		for i := range nums {
			if nums[i], ok = atoi(f[4+i]); !ok {
				return fmt.Errorf("bad attribute %q", f[4+i])
			}
		}
		return c.BGP.Announce(at, bgp.Route{
			Prefix: prefix, Egress: egress,
			LocalPref: nums[0], ASPathLen: nums[1], MED: nums[2], Origin: nums[3],
		})
	}
	return fmt.Errorf("unknown update type %q", f[1])
}

// EmitEgressChanges materializes "BGP egress change" events (Table I) for
// the given ingress routers and destination prefixes over [from, to],
// replaying the collected reflector feed through the emulated decision
// process. The full cross product of ingresses and destinations is far too
// large to materialize wholesale (as in the paper, where routes are
// computed on demand); applications call this for the pairs their
// diagnosis graphs care about.
func (c *Collector) EmitEgressChanges(ingresses []string, dests []netip.Prefix, from, to time.Time) {
	for _, ing := range ingresses {
		for _, dst := range dests {
			for _, ch := range c.BGP.EgressChanges(ing, dst.Addr(), from, to) {
				if ch.Old == "" {
					// The prefix was first learned inside the window:
					// table population, not a next-hop change.
					continue
				}
				c.add(event.BGPEgressChange, ch.At, ch.At,
					locus.Between(locus.IngressDestination, ing, dst.String()),
					map[string]string{"old": ch.Old, "new": ch.New})
			}
		}
	}
}
