package simnet

import (
	"fmt"
	"sort"
	"time"

	"grca/internal/event"
	"grca/internal/netmodel"
	"grca/internal/ospf"
)

// ------------------------------------------------------------------
// CDN study (Table VI)
// ------------------------------------------------------------------

// cdnMix is the Table VI root-cause composition. "external" degradations
// have no evidence inside the network (the paper's "Outside of our
// network" 74.83%).
var cdnMix = []struct {
	kind string
	frac float64
}{
	{"external", 0.7483},
	{event.BGPEgressChange, 0.0571},
	{event.InterfaceFlap, 0.0465},
	{event.OSPFReconvergence, 0.0416},
	{event.CDNPolicyChange, 0.0383},
	{event.LinkCongestion, 0.0350},
	{event.LinkLoss, 0.0332},
}

// cdnBin converts a time to the agent measurement bin index.
func (d *Dataset) cdnBin(t time.Time) int {
	return int(t.Sub(d.Config.Start) / (5 * time.Minute))
}

func (d *Dataset) binStart(bin int) time.Time {
	return d.Config.Start.Add(time.Duration(bin) * 5 * time.Minute)
}

// nearEgress returns the hot-potato egress for traffic leaving the CDN
// router, per the static planning weights.
func (d *Dataset) nearEgress() string {
	best, bestDist := "", 0
	for _, eg := range d.PeerEgresses {
		dist := d.planner.Distance(d.CDNRouter, eg, d.Config.Start)
		if best == "" || dist < bestDist || (dist == bestDist && eg < best) {
			best, bestDist = eg, dist
		}
	}
	return best
}

// cdnPathLink picks one backbone link on the CDN router → egress path.
func (d *Dataset) cdnPathLink() (*netmodel.LogicalLink, error) {
	pe, err := d.planner.Elements(d.CDNRouter, d.nearEgress(), d.Config.Start)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(pe.Links))
	for id := range pe.Links {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("simnet: empty CDN path")
	}
	sort.Strings(ids)
	return d.Topo.Links[ids[d.rng.Intn(len(ids))]], nil
}

func (d *Dataset) runCDNScenario(total int) error {
	fracs := make([]float64, len(cdnMix))
	for i, m := range cdnMix {
		fracs[i] = m.frac
	}
	counts := allocate(total, fracs)
	for mi, m := range cdnMix {
		for i := 0; i < counts[mi]; i++ {
			if err := d.cdnIncident(m.kind); err != nil {
				return err
			}
		}
	}
	return nil
}

// cdnIncident degrades one agent's RTT for one measurement bin and plants
// the cause's raw records.
func (d *Dataset) cdnIncident(kind string) error {
	agent := d.Agents[d.rng.Intn(len(d.Agents))]
	// All agents measure through the same node, ingress, and (mostly) the
	// same backbone path, so a network-side cause for one agent's
	// degradation temporally adjacent to another agent's incident would
	// genuinely explain both. Incidents therefore serialize node-wide,
	// with a gap comfortably beyond every CDN join window.
	keys := []string{"cdn/" + d.CDNNode}

	var link *netmodel.LogicalLink
	switch kind {
	case event.InterfaceFlap, event.OSPFReconvergence, event.LinkCongestion, event.LinkLoss:
		l, err := d.cdnPathLink()
		if err != nil {
			return err
		}
		link = l
		keys = append(keys, "link/"+l.ID)
	case event.BGPEgressChange:
		keys = append(keys, "egress/"+d.nearEgress())
	}
	t, err := d.scheduleGap(15*time.Minute, keys...)
	if err != nil {
		return err
	}
	bin := d.cdnBin(t)
	start := d.binStart(bin)
	if d.keynoteRTT[agent] == nil {
		d.keynoteRTT[agent] = map[int]float64{}
	}
	d.keynoteRTT[agent][bin] = 100 + d.rng.Float64()*40

	where := d.CDNServer + ":" + agent
	switch kind {
	case "external":
		d.truth("cdn", "external", start, where)
	case event.BGPEgressChange:
		eg := d.nearEgress()
		pfx := d.AgentPrefix[agent].String()
		d.bgpWithdraw(start.Add(-time.Minute), pfx, eg)
		d.bgpAnnounce(start.Add(6*time.Minute), pfx, eg, 100, 3)
		d.truth("cdn", event.BGPEgressChange, start, where)
	case event.InterfaceFlap:
		at := start.Add(30 * time.Second)
		up := at.Add(time.Duration(40+d.rng.Intn(40)) * time.Second)
		d.linkUpDown(at, link.A.Router.Name, link.A.Name, "down")
		d.linkUpDown(up, link.A.Router.Name, link.A.Name, "up")
		d.linkUpDown(at.Add(time.Second), link.B.Router.Name, link.B.Name, "down")
		d.linkUpDown(up.Add(time.Second), link.B.Router.Name, link.B.Name, "up")
		d.truth("cdn", event.InterfaceFlap, start, where)
	case event.OSPFReconvergence:
		// A traffic-engineering weight tweak: reconvergence without a
		// cost-out. The revert happens inside this incident's own join
		// window (it explains the same degradation) and well clear of the
		// next incident's.
		w := d.weights[link.ID]
		d.ospfMetric(start.Add(10*time.Second), link, w+3, false)
		d.ospfMetric(start.Add(6*time.Minute), link, w, false)
		d.truth("cdn", event.OSPFReconvergence, start, where)
	case event.CDNPolicyChange:
		d.serverLog(start.Add(10*time.Second), "policy", d.CDNNode,
			fmt.Sprintf("rebalance-%d", d.rng.Intn(100)))
		d.truth("cdn", event.CDNPolicyChange, start, where)
	case event.LinkCongestion:
		d.snmp(start, link.A.Router.Name, "ifutil", link.A.Name, 85+d.rng.Float64()*14)
		d.truth("cdn", event.LinkCongestion, start, where)
	case event.LinkLoss:
		d.snmp(start, link.A.Router.Name, "iferrors", link.A.Name, 150+d.rng.Float64()*400)
		d.truth("cdn", event.LinkLoss, start, where)
	default:
		return fmt.Errorf("simnet: unknown cdn incident kind %q", kind)
	}
	return nil
}

// ------------------------------------------------------------------
// PIM / MVPN study (Table VIII)
// ------------------------------------------------------------------

// pimMix is the Table VIII root-cause composition.
var pimMix = []struct {
	kind string
	frac float64
}{
	{event.InterfaceFlap, 0.6921},
	{event.OSPFReconvergence, 0.1036},
	{event.RouterCostInOut, 0.1034},
	{event.PIMConfigChange, 0.0404},
	{event.PIMUplinkAdjacencyChange, 0.0195},
	{"Unknown", 0.0176},
	{event.LinkCostOutDown, 0.0150},
	{event.LinkCostInUp, 0.0084},
}

func (d *Dataset) runPIMScenario(total int) error {
	if len(d.MVPNs) == 0 {
		return fmt.Errorf("simnet: PIM scenario requires MVPN customers (raise MVPNFraction)")
	}
	fracs := make([]float64, len(pimMix))
	for i, m := range pimMix {
		fracs[i] = m.frac
	}
	counts := allocate(total, fracs)
	for mi, m := range pimMix {
		for i := 0; i < counts[mi]; i++ {
			if err := d.pimIncident(m.kind); err != nil {
				return err
			}
		}
	}
	return nil
}

// pimPathElements returns the routers and links between an MVPN's PEs.
func (d *Dataset) pimPathElements(m MVPN) (ospf.PathElements, error) {
	return d.planner.Elements(m.PEs[0], m.PEs[1], d.Config.Start)
}

func (d *Dataset) pimIncident(kind string) error {
	m := d.MVPNs[d.rng.Intn(len(d.MVPNs))]
	reporter, about := m.PEs[1], m.PEs[0]
	pairKey := "pair/" + reporter + ":" + about
	where := reporter + ":" + about

	blip := func(t time.Time) {
		d.pimVRFChange(t, reporter, m.VRF, about, "DOWN")
		d.pimVRFChange(t.Add(time.Duration(45+d.rng.Intn(60))*time.Second), reporter, m.VRF, about, "UP")
	}

	switch kind {
	case event.InterfaceFlap:
		// Customer-facing interface flap at the far PE: reuse the shared
		// cascade, labeling the PIM symptom.
		for _, s := range d.Sessions {
			if s.MVPN == m.VRF {
				return d.customerFlap(s, "", "pim", event.InterfaceFlap)
			}
		}
		return fmt.Errorf("simnet: MVPN %s has no session", m.VRF)

	case event.OSPFReconvergence, event.LinkCostOutDown, event.LinkCostInUp:
		pe, err := d.pimPathElements(m)
		if err != nil {
			return err
		}
		ids := make([]string, 0, len(pe.Links))
		for id := range pe.Links {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if len(ids) == 0 {
			return fmt.Errorf("simnet: empty PE path for %s", m.VRF)
		}
		link := d.Topo.Links[ids[d.rng.Intn(len(ids))]]
		t, err := d.schedule(pairKey, "link/"+link.ID)
		if err != nil {
			return err
		}
		w := d.weights[link.ID]
		switch kind {
		case event.OSPFReconvergence:
			d.ospfMetric(t, link, w+3, false)
			d.ospfMetric(t.Add(20*time.Minute), link, w, false)
		case event.LinkCostOutDown:
			d.ospfMetric(t, link, 65535, false)
			// Quiet revert: PIM re-converged make-before-break.
			d.ospfMetric(t.Add(20*time.Minute), link, w, false)
		case event.LinkCostInUp:
			d.ospfMetric(t.Add(-20*time.Minute), link, 65535, false)
			d.ospfMetric(t, link, w, false)
		}
		blip(t.Add(5 * time.Second))
		d.truth("pim", kind, t.Add(5*time.Second), where)
		return nil

	case event.RouterCostInOut:
		pe, err := d.pimPathElements(m)
		if err != nil {
			return err
		}
		var cores []string
		for r := range pe.Routers {
			if d.Topo.Routers[r].Role == netmodel.RoleCore {
				cores = append(cores, r)
			}
		}
		sort.Strings(cores)
		if len(cores) == 0 {
			return fmt.Errorf("simnet: no core router on PE path for %s", m.VRF)
		}
		core := cores[d.rng.Intn(len(cores))]
		var links []*netmodel.LogicalLink
		for _, l := range d.igpLinks {
			if l.A.Router.Name == core || l.B.Router.Name == core {
				links = append(links, l)
			}
		}
		keys := []string{pairKey, "router/" + core}
		for _, l := range links {
			keys = append(keys, "link/"+l.ID)
		}
		t, err := d.schedule(keys...)
		if err != nil {
			return err
		}
		for i, l := range links {
			at := t.Add(time.Duration(i*5) * time.Second)
			d.tacacs(at.Add(-2*time.Second), core, "ops", "cost-out interface "+ifNameOn(l, core))
			d.ospfMetric(at, l, 65535, false)
		}
		// Quiet restore after maintenance.
		for i, l := range links {
			d.ospfMetric(t.Add(25*time.Minute+time.Duration(i*5)*time.Second), l, d.weights[l.ID], false)
		}
		blip(t.Add(10 * time.Second))
		d.truth("pim", event.RouterCostInOut, t.Add(10*time.Second), where)
		return nil

	case event.PIMConfigChange:
		t, err := d.schedule(pairKey, "router/"+about)
		if err != nil {
			return err
		}
		d.tacacs(t, about, "prov", "mvpn "+m.VRF+" remove")
		d.pimVRFChange(t.Add(5*time.Second), reporter, m.VRF, about, "DOWN")
		d.tacacs(t.Add(20*time.Minute), about, "prov", "mvpn "+m.VRF+" add")
		d.pimVRFChange(t.Add(20*time.Minute+5*time.Second), reporter, m.VRF, about, "UP")
		d.truth("pim", event.PIMConfigChange, t.Add(5*time.Second), where)
		return nil

	case event.PIMUplinkAdjacencyChange:
		ups := d.Topo.Uplinks(about)
		if len(ups) == 0 {
			return fmt.Errorf("simnet: PE %s has no uplinks", about)
		}
		up := ups[d.rng.Intn(len(ups))]
		t, err := d.schedule(pairKey, "router/"+about, "link/"+up.Link.ID)
		if err != nil {
			return err
		}
		far := up.Link.Other(about)
		d.pimUplinkChange(t, about, up.Name, far.IP.String(), "DOWN")
		d.pimUplinkChange(t.Add(time.Minute), about, up.Name, far.IP.String(), "UP")
		blip(t.Add(3 * time.Second))
		d.truth("pim", event.PIMUplinkAdjacencyChange, t.Add(3*time.Second), where)
		return nil

	case "Unknown":
		t, err := d.schedule(pairKey)
		if err != nil {
			return err
		}
		blip(t)
		d.truth("pim", "Unknown", t, where)
		return nil
	}
	return fmt.Errorf("simnet: unknown pim incident kind %q", kind)
}

// ifNameOn returns the interface name of link l on router r.
func ifNameOn(l *netmodel.LogicalLink, r string) string {
	if l.A.Router.Name == r {
		return l.A.Name
	}
	return l.B.Name
}
