package simnet

import (
	"fmt"
	"sort"
	"time"

	"grca/internal/event"
	"grca/internal/netmodel"
)

// spacing is the minimum separation between incidents sharing any element,
// keeping causal attributions unambiguous at generation time.
const spacing = 30 * time.Minute

// margin keeps incidents away from the observation window edges so
// baselines warm up and trailing records stay inside the window.
const margin = 3 * time.Hour

// schedule picks a random incident time such that every listed element key
// is free (no other incident within spacing), and reserves it.
func (d *Dataset) schedule(keys ...string) (time.Time, error) {
	return d.scheduleGap(spacing, keys...)
}

// scheduleGap is schedule with an explicit minimum separation.
func (d *Dataset) scheduleGap(gap time.Duration, keys ...string) (time.Time, error) {
	return d.scheduleEx(gap, keys, nil)
}

// scheduleEx picks a time clear of both reserve and avoid keys, but only
// registers the reservation under reserve keys: incidents listing a key in
// avoid keep away from reservers of that key without excluding each other.
func (d *Dataset) scheduleEx(gap time.Duration, reserve, avoid []string) (time.Time, error) {
	lo := d.Config.Start.Add(margin)
	span := d.Config.Duration - 2*margin
	if span <= 0 {
		return time.Time{}, fmt.Errorf("simnet: duration %v too short for scheduling", d.Config.Duration)
	}
	clear := func(t int64, keys []string) bool {
		for _, k := range keys {
			for _, used := range d.busy[k] {
				if delta := time.Duration(t - used); delta > -gap && delta < gap {
					return false
				}
			}
		}
		return true
	}
	for attempt := 0; attempt < 800; attempt++ {
		t := lo.Add(time.Duration(d.rng.Int63n(int64(span))))
		at := t.UnixNano()
		if !clear(at, reserve) || !clear(at, avoid) {
			continue
		}
		for _, k := range reserve {
			d.busy[k] = append(d.busy[k], at)
		}
		return t, nil
	}
	return time.Time{}, fmt.Errorf("simnet: could not place incident for %v (raise Duration or lower incident counts)", reserve)
}

// allocate distributes total across fractions with the largest-remainder
// method so the counts sum exactly to total.
func allocate(total int, fracs []float64) []int {
	counts := make([]int, len(fracs))
	rems := make([]float64, len(fracs))
	sum := 0
	for i, f := range fracs {
		exact := f * float64(total)
		counts[i] = int(exact)
		rems[i] = exact - float64(counts[i])
		sum += counts[i]
	}
	type idxRem struct {
		i int
		r float64
	}
	order := make([]idxRem, len(fracs))
	for i := range fracs {
		order[i] = idxRem{i, rems[i]}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].r > order[b].r })
	for k := 0; sum < total && k < len(order); k++ {
		counts[order[k].i]++
		sum++
	}
	return counts
}

func (d *Dataset) truth(study, kind string, at time.Time, where string) {
	d.Truth = append(d.Truth, Truth{ID: len(d.Truth), Study: study, Kind: kind, At: at, Where: where})
}

// sessionWhere renders the location key of a session's eBGP symptom.
func sessionWhere(s Session) string { return s.PER + ":" + s.NeighborIP.String() }

// accessCircuit returns a session's access physical link.
func (d *Dataset) accessCircuit(s Session) *netmodel.PhysicalLink {
	l, ok := d.Topo.Links[s.Customer+"-att1"]
	if !ok || len(l.Phys) == 0 {
		return nil
	}
	return l.Phys[0]
}

// ------------------------------------------------------------------
// Routing baseline and steady-state feeds
// ------------------------------------------------------------------

// internalLinks returns the IGP links (both ends inside the ISP), sorted;
// Generate keeps them as d.igpLinks.
func (d *Dataset) internalLinks() []*netmodel.LogicalLink {
	var out []*netmodel.LogicalLink
	for _, id := range d.Topo.LinkIDs() {
		l := d.Topo.Links[id]
		if l.A.Router.Role != netmodel.RoleCustomer && l.B.Router.Role != netmodel.RoleCustomer {
			out = append(out, l)
		}
	}
	return out
}

// emitRoutingBaseline floods the initial OSPF LSDB and announces the agent
// prefixes at both peering egresses.
func (d *Dataset) emitRoutingBaseline() {
	at := d.Config.Start
	for _, l := range d.igpLinks {
		d.ospfMetric(at, l, d.weights[l.ID], true)
	}
	for _, agent := range d.Agents {
		pfx := d.AgentPrefix[agent].String()
		for _, eg := range d.PeerEgresses {
			d.bgpAnnounce(at, pfx, eg, 100, 3)
		}
	}
}

// probePairs selects the (ingress, egress) router pairs the in-network
// performance monitor measures: the first PER of each PoP, full mesh at
// small scale, ring plus hub star beyond eight PoPs (a full mesh is
// quadratic; real probe deployments thin it the same way).
func (d *Dataset) probePairs() [][2]string {
	var probes []string
	for p := 0; p < d.Config.PoPs; p++ {
		probes = append(probes, fmt.Sprintf("%s-per1", d.popName(p)))
	}
	var pairs [][2]string
	if d.Config.PoPs <= 8 {
		for i := 0; i < len(probes); i++ {
			for j := i + 1; j < len(probes); j++ {
				pairs = append(pairs, [2]string{probes[i], probes[j]})
			}
		}
	} else {
		for i := 1; i < len(probes); i++ {
			pairs = append(pairs, [2]string{probes[0], probes[i]})
			pairs = append(pairs, [2]string{probes[i-1], probes[i]})
		}
	}
	return pairs
}

// emitNoise produces the unrelated signature series of §IV-B: benign
// syslog message kinds and workflow actions scattered across routers.
func (d *Dataset) emitNoise() {
	cfg := d.Config
	span := int64(cfg.Duration)
	for k := 0; k < cfg.NoiseSyslogKinds; k++ {
		tag := fmt.Sprintf("%%NOISE%02d-5-NOTICE: routine condition %d", k, k)
		for i := 0; i < cfg.NoiseEventsPerKind; i++ {
			at := cfg.Start.Add(time.Duration(d.rng.Int63n(span)))
			d.syslog(at, d.pers[d.rng.Intn(len(d.pers))], tag)
		}
	}
	for k := 0; k < cfg.NoiseWorkflowKinds; k++ {
		action := fmt.Sprintf("wf-task-%02d", k)
		for i := 0; i < cfg.NoiseEventsPerKind; i++ {
			at := cfg.Start.Add(time.Duration(d.rng.Int63n(span)))
			d.workflow(at, d.pers[d.rng.Intn(len(d.pers))],
				fmt.Sprintf("TKT%05d", d.rng.Intn(100000)), action)
		}
	}
}

// ------------------------------------------------------------------
// BGP flap study (Table IV)
// ------------------------------------------------------------------

// bgpMix is the Table IV root-cause composition. Router reboots are
// handled separately since one reboot flaps every session on the router.
var bgpMix = []struct {
	kind string
	frac float64
}{
	{event.InterfaceFlap, 0.6394},
	{event.LineProtoFlap, 0.1115},
	{"Unknown", 0.1095},
	{event.CPUHighSpike, 0.0644},
	{event.EBGPHoldTimerExpired, 0.0486},
	{event.CustomerResetSession, 0.0184},
	{event.SONETRestoration, 0.0029},
	{event.OpticalFast, 0.0014},
	{event.OpticalRegular, 0.0004},
	{event.CPUHighAverage, 0.0002},
}

const rebootFrac = 0.0033

func (d *Dataset) runBGPScenario(total int) error {
	// Reboot incidents first: each contributes SessionsPerPER flaps.
	perSessions := map[string][]Session{}
	for _, s := range d.Sessions {
		perSessions[s.PER] = append(perSessions[s.PER], s)
	}

	rebootFlaps := int(rebootFrac * float64(total))
	reboots := rebootFlaps / d.Config.SessionsPerPER
	if rebootFlaps > 0 && reboots == 0 && total >= 1000 {
		reboots = 1
	}
	remaining := total - reboots*d.Config.SessionsPerPER
	if remaining < 0 {
		remaining = 0
	}

	for i := 0; i < reboots; i++ {
		per := d.pers[d.rng.Intn(len(d.pers))]
		keys := []string{"router/" + per}
		for _, s := range perSessions[per] {
			keys = append(keys, "session/"+sessionWhere(s))
		}
		t, err := d.schedule(keys...)
		if err != nil {
			return err
		}
		d.reboot(t, per)
		for _, s := range perSessions[per] {
			down := t.Add(time.Duration(5+d.rng.Intn(10)) * time.Second)
			up := t.Add(time.Duration(150+d.rng.Intn(120)) * time.Second)
			d.bgpAdj(down, per, s.NeighborIP.String(), "Down", "")
			d.bgpAdj(up, per, s.NeighborIP.String(), "Up", "")
			d.truth("bgp", event.RouterReboot, down, sessionWhere(s))
		}
	}

	fracs := make([]float64, len(bgpMix))
	for i, m := range bgpMix {
		fracs[i] = m.frac
	}
	counts := allocate(remaining, fracs)

	for mi, m := range bgpMix {
		for i := 0; i < counts[mi]; i++ {
			if err := d.bgpIncident(m.kind); err != nil {
				return err
			}
		}
	}
	return nil
}

// pickSession selects a random session, optionally constrained to an
// access-circuit layer-1 kind.
func (d *Dataset) pickSession(wantKind netmodel.L1Kind, constrained bool) (Session, error) {
	for attempt := 0; attempt < 200; attempt++ {
		s := d.Sessions[d.rng.Intn(len(d.Sessions))]
		if !constrained {
			return s, nil
		}
		if p := d.accessCircuit(s); p != nil && p.Kind == wantKind {
			return s, nil
		}
	}
	return Session{}, fmt.Errorf("simnet: no session with required access circuit kind")
}

func (d *Dataset) bgpIncident(kind string) error {
	switch kind {
	case event.InterfaceFlap:
		s, err := d.pickSession(0, false)
		if err != nil {
			return err
		}
		return d.customerFlap(s, "", "bgp", event.InterfaceFlap)
	case event.SONETRestoration:
		s, err := d.pickSession(netmodel.L1SONET, true)
		if err != nil {
			return err
		}
		return d.customerFlap(s, "sonet", "bgp", event.SONETRestoration)
	case event.OpticalFast:
		s, err := d.pickSession(netmodel.L1OpticalMesh, true)
		if err != nil {
			return err
		}
		return d.customerFlap(s, "fast", "bgp", event.OpticalFast)
	case event.OpticalRegular:
		s, err := d.pickSession(netmodel.L1OpticalMesh, true)
		if err != nil {
			return err
		}
		return d.customerFlap(s, "regular", "bgp", event.OpticalRegular)
	case event.LineProtoFlap:
		return d.lineProtoIncident()
	case event.CPUHighSpike:
		return d.cpuIncident(true)
	case event.CPUHighAverage:
		return d.cpuIncident(false)
	case event.EBGPHoldTimerExpired:
		return d.simpleFlap(func(t time.Time, s Session) {
			d.bgpHTE(t, s.PER, s.NeighborIP.String())
		}, event.EBGPHoldTimerExpired)
	case event.CustomerResetSession:
		return d.simpleFlap(func(t time.Time, s Session) {
			d.bgpCustomerReset(t, s.PER, s.NeighborIP.String())
		}, event.CustomerResetSession)
	case "Unknown":
		return d.simpleFlap(nil, "Unknown")
	}
	return fmt.Errorf("simnet: unknown bgp incident kind %q", kind)
}

// customerFlap is the core cascade: (optional layer-1 restoration) →
// interface flap → line-protocol flap → eBGP flap (fast external fallover
// or hold-timer expiry) → PIM adjacency changes at remote MVPN PEs.
// study/truthKind label the ground truth ("bgp" study labels the eBGP
// flap; "pim" labels the remote adjacency change).
func (d *Dataset) customerFlap(s Session, l1 string, study, truthKind string) error {
	keys := []string{"session/" + sessionWhere(s)}
	var avoid []string
	// Plain interface flaps may share a router under relaxed spacing;
	// layer-1-caused flaps always keep strict spacing because their access
	// circuits share layer-1 devices PER-wide.
	if d.Config.RelaxRouterSpacing && l1 == "" {
		avoid = []string{"router/" + s.PER}
	} else {
		keys = append(keys, "router/"+s.PER)
	}
	if s.MVPN != "" {
		for _, m := range d.MVPNs {
			if m.VRF == s.MVPN {
				keys = append(keys, "pair/"+m.PEs[1]+":"+m.PEs[0])
			}
		}
	}
	t, err := d.scheduleEx(spacing, keys, avoid)
	if err != nil {
		return err
	}

	if l1 != "" {
		circuit := d.accessCircuit(s)
		dev := circuit.L1[d.rng.Intn(len(circuit.L1))]
		switch l1 {
		case "sonet":
			d.layer1(t.Add(-2*time.Second), dev.Name, "SONET-APS", "protection switch")
		default:
			d.layer1(t.Add(-2*time.Second), dev.Name, "MESH-RESTORE", l1)
		}
	}

	fast := d.rng.Intn(2) == 0
	var down, up time.Time
	ifUp := t.Add(time.Duration(30+d.rng.Intn(60)) * time.Second)
	if !fast {
		// The interface stays down past the hold timer.
		ifUp = t.Add(time.Duration(200+d.rng.Intn(200)) * time.Second)
	}
	d.linkUpDown(t, s.PER, s.Interface, "down")
	d.lineProtoUpDown(t.Add(time.Second), s.PER, s.Interface, "down")
	d.linkUpDown(ifUp, s.PER, s.Interface, "up")
	d.lineProtoUpDown(ifUp.Add(time.Second), s.PER, s.Interface, "up")

	if fast {
		down = t.Add(time.Second)
	} else {
		down = t.Add(180 * time.Second)
		d.bgpHTE(down, s.PER, s.NeighborIP.String())
	}
	up = ifUp.Add(time.Duration(10+d.rng.Intn(20)) * time.Second)
	if up.Before(down) {
		up = down.Add(30 * time.Second)
	}
	d.bgpAdj(down, s.PER, s.NeighborIP.String(), "Down", "")
	d.bgpAdj(up, s.PER, s.NeighborIP.String(), "Up", "")
	if study == "bgp" {
		d.truth("bgp", truthKind, down, sessionWhere(s))
	}

	// Remote MVPN PEs lose their adjacency to this PE.
	if s.MVPN != "" {
		for _, m := range d.MVPNs {
			if m.VRF != s.MVPN {
				continue
			}
			reporter, about := m.PEs[1], m.PEs[0]
			if about != s.PER {
				reporter, about = m.PEs[0], m.PEs[1]
			}
			nd := t.Add(2 * time.Second)
			d.pimVRFChange(nd, reporter, m.VRF, about, "DOWN")
			d.pimVRFChange(ifUp.Add(20*time.Second), reporter, m.VRF, about, "UP")
			if study == "pim" {
				d.truth("pim", truthKind, nd, reporter+":"+about)
			}
		}
	}
	return nil
}

// lineProtoIncident flaps only the line protocol (keepalive loss without a
// physical transition); the session drops via hold-timer expiry.
func (d *Dataset) lineProtoIncident() error {
	s, err := d.pickSession(0, false)
	if err != nil {
		return err
	}
	t, err := d.flapSlot(s)
	if err != nil {
		return err
	}
	protoUp := t.Add(time.Duration(200+d.rng.Intn(200)) * time.Second)
	d.lineProtoUpDown(t, s.PER, s.Interface, "down")
	d.lineProtoUpDown(protoUp, s.PER, s.Interface, "up")
	down := t.Add(180 * time.Second)
	d.bgpHTE(down, s.PER, s.NeighborIP.String())
	d.bgpAdj(down, s.PER, s.NeighborIP.String(), "Down", "")
	d.bgpAdj(protoUp.Add(15*time.Second), s.PER, s.NeighborIP.String(), "Up", "")
	d.truth("bgp", event.LineProtoFlap, down, sessionWhere(s))
	return nil
}

// cpuIncident drives sessions down through CPU exhaustion: a syslog spike
// (or a high 5-minute SNMP average) plus hold-timer expiries.
func (d *Dataset) cpuIncident(spike bool) error {
	per := d.pers[d.rng.Intn(len(d.pers))]
	var sessions []Session
	for _, s := range d.Sessions {
		if s.PER == per {
			sessions = append(sessions, s)
		}
	}
	if len(sessions) == 0 {
		return fmt.Errorf("simnet: PER %s has no sessions", per)
	}
	victim := sessions[d.rng.Intn(len(sessions))]
	t, err := d.schedule("router/"+per, "session/"+sessionWhere(victim))
	if err != nil {
		return err
	}
	kind := event.CPUHighAverage
	if spike {
		d.cpuSpike(t, per, 92+d.rng.Intn(8))
		kind = event.CPUHighSpike
	} else {
		bin := t.Truncate(5 * time.Minute)
		d.snmp(bin, per, "cpu5min", "", 85+d.rng.Float64()*10)
	}
	down := t.Add(time.Duration(20+d.rng.Intn(40)) * time.Second)
	d.bgpHTE(down, per, victim.NeighborIP.String())
	d.bgpAdj(down, per, victim.NeighborIP.String(), "Down", "")
	d.bgpAdj(down.Add(time.Duration(60+d.rng.Intn(60))*time.Second), per, victim.NeighborIP.String(), "Up", "")
	d.truth("bgp", kind, down, sessionWhere(victim))
	return nil
}

// flapSlot schedules a plain single-session flap, honoring the relaxed
// router-spacing mode.
func (d *Dataset) flapSlot(s Session) (time.Time, error) {
	if d.Config.RelaxRouterSpacing {
		return d.scheduleEx(spacing,
			[]string{"session/" + sessionWhere(s)},
			[]string{"router/" + s.PER})
	}
	return d.schedule("session/"+sessionWhere(s), "router/"+s.PER)
}

// simpleFlap drops one session with an optional accompanying signature
// (hold-timer notification, customer reset) and no deeper evidence.
func (d *Dataset) simpleFlap(pre func(t time.Time, s Session), truthKind string) error {
	s, err := d.pickSession(0, false)
	if err != nil {
		return err
	}
	var t time.Time
	if pre == nil { // the "Unknown" incident: relax-eligible
		t, err = d.flapSlot(s)
	} else {
		t, err = d.schedule("session/"+sessionWhere(s), "router/"+s.PER)
	}
	if err != nil {
		return err
	}
	if pre != nil {
		pre(t, s)
	}
	d.bgpAdj(t, s.PER, s.NeighborIP.String(), "Down", "")
	d.bgpAdj(t.Add(time.Duration(45+d.rng.Intn(60))*time.Second), s.PER, s.NeighborIP.String(), "Up", "")
	d.truth("bgp", truthKind, t, sessionWhere(s))
	return nil
}

// runProvisioningBug injects the §IV-B hidden vendor bug: provisioning
// activity that flaps unrelated customer sessions through CPU exhaustion,
// leaving no link-layer evidence.
func (d *Dataset) runProvisioningBug(count int) {
	for i := 0; i < count; i++ {
		per := d.pers[d.rng.Intn(len(d.pers))]
		var sessions []Session
		for _, s := range d.Sessions {
			if s.PER == per {
				sessions = append(sessions, s)
			}
		}
		if len(sessions) == 0 {
			continue
		}
		victim := sessions[d.rng.Intn(len(sessions))]
		t, err := d.schedule("router/"+per, "session/"+sessionWhere(victim))
		if err != nil {
			continue // best effort: the study needs many, not all
		}
		d.workflow(t, per, fmt.Sprintf("TKT%05d", d.rng.Intn(100000)), "provision-customer")
		d.cpuSpike(t.Add(30*time.Second), per, 93+d.rng.Intn(6))
		down := t.Add(time.Duration(60+d.rng.Intn(60)) * time.Second)
		d.bgpHTE(down, per, victim.NeighborIP.String())
		d.bgpAdj(down, per, victim.NeighborIP.String(), "Down", "")
		d.bgpAdj(down.Add(90*time.Second), per, victim.NeighborIP.String(), "Up", "")
		d.truth("bgp", "provisioning bug", down, sessionWhere(victim))
	}
}

// runLineCardCrash injects the §IV-C scenario: one customer-facing line
// card crashes, flapping every session it carries within three minutes.
// No card-level log exists — the root cause is unobservable.
func (d *Dataset) runLineCardCrash() error {
	// Choose the PER with the most sessions on card 0.
	perSessions := map[string][]Session{}
	for _, s := range d.Sessions {
		ifc, ok := d.Topo.InterfaceByName(s.PER, s.Interface)
		if ok && ifc.Card.Slot == 0 {
			perSessions[s.PER] = append(perSessions[s.PER], s)
		}
	}
	best := ""
	for per, ss := range perSessions {
		if best == "" || len(ss) > len(perSessions[best]) || (len(ss) == len(perSessions[best]) && per < best) {
			best = per
		}
	}
	if best == "" {
		return fmt.Errorf("simnet: no card-0 sessions for line-card crash")
	}
	victims := perSessions[best]
	keys := []string{"router/" + best}
	for _, s := range victims {
		keys = append(keys, "session/"+sessionWhere(s))
	}
	t, err := d.schedule(keys...)
	if err != nil {
		return err
	}
	for _, s := range victims {
		start := t.Add(time.Duration(d.rng.Intn(150)) * time.Second)
		up := start.Add(time.Duration(30+d.rng.Intn(60)) * time.Second)
		d.linkUpDown(start, best, s.Interface, "down")
		d.linkUpDown(up, best, s.Interface, "up")
		d.bgpAdj(start.Add(time.Second), best, s.NeighborIP.String(), "Down", "")
		d.bgpAdj(up.Add(10*time.Second), best, s.NeighborIP.String(), "Up", "")
		d.truth("bgp", "line-card crash", start.Add(time.Second), sessionWhere(s))
	}
	return nil
}
