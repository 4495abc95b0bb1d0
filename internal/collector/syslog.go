package collector

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// syslogLine ingests router syslog. Lines follow the classic RFC 3164
// shape — *device-local* wall time with no year or zone, and a device name
// that may be any alias (short name, FQDN, upper-case):
//
//	Jan  2 15:04:05 CHI-PER1.net.example.com %LINK-3-UPDOWN: Interface so-0/0/0, changed state to down
//
// The collector normalizes the device reference via the configuration-
// derived alias table and converts the timestamp to UTC using the
// device's configured clock zone, resolving the paper's mixture of "local
// time (depending on the time zone of the device), network time ... and
// GMT".
func (c *Collector) syslogLine(line []byte) error {
	if len(line) < 16 {
		return fmt.Errorf("line too short")
	}
	ts, err := syslogStamp(line[:15], c.Year)
	if err != nil {
		return err
	}
	rest := bytes.TrimSpace(line[15:])
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("missing device field")
	}
	device, msg := rest[:sp], bytes.TrimSpace(rest[sp+1:])
	router, err := c.canonical(device)
	if err != nil {
		return err
	}
	// Re-interpret the wall time in the device's zone, resolving the
	// year-less stamp against the collection window when one is set.
	at := c.resolveSyslogYear(ts, c.location(router))

	if len(msg) == 0 || msg[0] != '%' {
		return fmt.Errorf("missing facility tag")
	}
	colon := bytes.IndexByte(msg, ':')
	if colon < 0 {
		return fmt.Errorf("missing message separator")
	}
	tag, body := msg[1:colon], bytes.TrimSpace(msg[colon+1:])

	if c.EmitGenericSignatures {
		c.add("syslog:"+string(tag), at, at, locus.At(locus.Router, router), nil)
	}

	switch string(tag) {
	case "LINK-3-UPDOWN":
		return c.upDown(c.ifaceTrans, router, at, body, "Interface ")
	case "LINEPROTO-5-UPDOWN":
		return c.upDown(c.protoTrans, router, at, body, "Line protocol on Interface ")
	case "BGP-5-ADJCHANGE":
		return c.bgpAdj(router, at, body)
	case "BGP-5-NOTIFICATION":
		return c.syslogBGPNotif(router, at, string(body))
	case "SYS-5-RESTART":
		c.add(event.RouterReboot, at, at, locus.At(locus.Router, router), nil)
	case "SYS-1-CPURISINGTHRESHOLD":
		c.add(event.CPUHighSpike, at, at, locus.At(locus.Router, router),
			map[string]string{"detail": string(body)})
	case "PIM-5-NBRCHG":
		return c.syslogPIM(router, at, string(body))
	default:
		// Unrecognized but well-formed messages are normal operational
		// noise; the generic signature (if enabled) already captured them.
	}
	return nil
}

// resolveSyslogYear converts a year-less wall time to UTC in the device's
// zone. With a collection window configured, the candidate year landing
// inside the (slightly padded) window wins; otherwise the configured Year
// is taken at face value.
func (c *Collector) resolveSyslogYear(ts time.Time, loc *time.Location) time.Time {
	mk := func(year int) time.Time {
		return time.Date(year, ts.Month(), ts.Day(), ts.Hour(), ts.Minute(), ts.Second(), 0, loc).UTC()
	}
	if c.WindowStart.IsZero() || c.WindowEnd.IsZero() {
		return mk(c.Year)
	}
	lo, hi := c.WindowStart.Add(-24*time.Hour), c.WindowEnd.Add(24*time.Hour)
	for _, year := range []int{c.Year, c.Year - 1, c.Year + 1} {
		if at := mk(year); !at.Before(lo) && !at.After(hi) {
			return at
		}
	}
	return mk(c.Year)
}

func (c *Collector) upDown(buf map[locus.Location][]transition, router string, at time.Time, body []byte, prefix string) error {
	rest, ok := bytes.CutPrefix(body, []byte(prefix))
	if !ok {
		return fmt.Errorf("unexpected UPDOWN body %q", body)
	}
	const clause = ", changed state to "
	comma := bytes.Index(rest, []byte(clause))
	if comma < 0 {
		return fmt.Errorf("missing state clause")
	}
	up := false
	switch state := bytes.TrimSpace(rest[comma+len(clause):]); string(state) {
	case "up":
		up = true
	case "down":
	default:
		return fmt.Errorf("unknown state %q", state)
	}
	loc := locus.Between(locus.Interface, router, string(rest[:comma]))
	buf[loc] = append(buf[loc], transition{at: at, loc: loc, up: up})
	return nil
}

func (c *Collector) bgpAdj(router string, at time.Time, body []byte) error {
	// "neighbor 10.1.0.2 Down Interface flap" / "neighbor 10.1.0.2 Up"
	f := c.scr.words(body)
	if len(f) < 3 || string(f[0]) != "neighbor" {
		return fmt.Errorf("unexpected ADJCHANGE body %q", body)
	}
	if _, ok := c.addrCached(f[1]); !ok {
		return fmt.Errorf("bad neighbor address %q", f[1])
	}
	loc := locus.Between(locus.RouterNeighbor, router, string(f[1]))
	switch string(f[2]) {
	case "Up":
		c.bgpTrans[loc] = append(c.bgpTrans[loc], transition{at: at, loc: loc, up: true})
	case "Down":
		var attr map[string]string
		if len(f) > 3 {
			attr = map[string]string{"reason": string(bytes.Join(f[3:], []byte(" ")))}
		}
		c.bgpTrans[loc] = append(c.bgpTrans[loc], transition{at: at, loc: loc, attr: attr})
	default:
		return fmt.Errorf("unknown adjacency state %q", f[2])
	}
	return nil
}

func (c *Collector) syslogBGPNotif(router string, at time.Time, body string) error {
	// "sent to neighbor 10.1.0.2 4/0 (hold time expired)" or
	// "received from neighbor 10.1.0.2 6/4 (administrative reset)"
	fields := strings.Fields(body)
	idx := -1
	for i, f := range fields {
		if f == "neighbor" && i+1 < len(fields) {
			idx = i + 1
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("notification without neighbor: %q", body)
	}
	if _, err := netip.ParseAddr(fields[idx]); err != nil {
		return fmt.Errorf("bad neighbor address %q", fields[idx])
	}
	loc := locus.Between(locus.RouterNeighbor, router, fields[idx])
	c.add(event.BGPNotification, at, at, loc, nil)
	switch {
	case strings.Contains(body, "hold time expired"):
		c.add(event.EBGPHoldTimerExpired, at, at, loc, nil)
	case strings.HasPrefix(body, "received") && strings.Contains(body, "administrative reset"):
		c.add(event.CustomerResetSession, at, at, loc, nil)
	}
	return nil
}

func (c *Collector) syslogPIM(router string, at time.Time, body string) error {
	// MVPN PE–PE adjacency (the Table VIII symptom):
	//   "VRF custA: neighbor 10.255.0.9 DOWN"
	// Global PIM on the uplink toward the backbone:
	//   "neighbor 10.0.0.5 DOWN on interface so-1/0/0"
	fields := strings.Fields(body)
	vrf := ""
	if len(fields) >= 2 && fields[0] == "VRF" {
		vrf = strings.TrimSuffix(fields[1], ":")
		fields = fields[2:]
	}
	if len(fields) < 3 || fields[0] != "neighbor" {
		return fmt.Errorf("unexpected NBRCHG body %q", body)
	}
	addr, err := netip.ParseAddr(fields[1])
	if err != nil {
		return fmt.Errorf("bad neighbor address %q", fields[1])
	}
	state := fields[2]

	var loc locus.Location
	attrs := map[string]string{}
	if vrf != "" {
		// The neighbor is another PE, identified by loopback.
		peer, ok := c.Aliases.CanonicalIP(addr)
		if !ok {
			return fmt.Errorf("unknown PE loopback %v", addr)
		}
		loc = locus.Between(locus.RouterNeighbor, router, peer)
		attrs["vrf"] = vrf
	} else {
		// Directly connected neighbor on the uplink: resolve through the
		// shared /30 to the far-end router.
		ifc, ok := c.Topo.InterfaceForNeighborIP(router, addr)
		if !ok || ifc.Link == nil {
			return fmt.Errorf("cannot resolve PIM neighbor %v on %s", addr, router)
		}
		far := ifc.Link.Other(router)
		if far == nil {
			return fmt.Errorf("degenerate link for PIM neighbor %v", addr)
		}
		loc = locus.Between(locus.RouterNeighbor, router, far.Router.Name)
		attrs["uplink"] = "true"
	}
	switch state {
	case "DOWN":
		c.pimDown = append(c.pimDown, transition{at: at, loc: loc, attr: attrs})
	case "UP":
		c.pimUp[loc] = append(c.pimUp[loc], at)
	default:
		return fmt.Errorf("unknown PIM state %q", state)
	}
	return nil
}
