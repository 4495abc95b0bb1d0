package collector

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/store"
	"grca/internal/testnet"
)

func newCollector(t *testing.T) (*Collector, *store.Memory) {
	t.Helper()
	n := testnet.Build(t.Fatalf)
	st := store.New()
	return New(n.Topo, st, 2010), st
}

func ingest(t *testing.T, c *Collector, source, text string) {
	t.Helper()
	if err := c.Ingest(source, strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
}

// setBudget lowers the error budget for one test.
func setBudget(t *testing.T, lines int, rate float64) {
	t.Helper()
	l, r := minLines, maxDropRate
	minLines, maxDropRate = lines, rate
	t.Cleanup(func() { minLines, maxDropRate = l, r })
}

func finalize(t *testing.T, c *Collector) {
	t.Helper()
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestSyslogTimezoneNormalization(t *testing.T) {
	c, st := newCollector(t)
	// chi-per1 stamps in America/Chicago (CST = UTC-6 in January).
	ingest(t, c, SourceSyslog,
		"Jan  2 06:00:00 chi-per1 %SYS-5-RESTART: System restarted\n")
	// nyc-per1 stamps in America/New_York (EST = UTC-5), via FQDN alias
	// and upper case.
	ingest(t, c, SourceSyslog,
		"Jan  2 07:00:00 NYC-PER1.NET.EXAMPLE.COM %SYS-5-RESTART: System restarted\n")
	finalize(t, c)

	got := st.All(event.RouterReboot)
	if len(got) != 2 {
		t.Fatalf("reboots = %d", len(got))
	}
	want := time.Date(2010, 1, 2, 12, 0, 0, 0, time.UTC)
	for _, in := range got {
		if !in.Start.Equal(want) {
			t.Errorf("reboot at %v on %s, want %v (normalized)", in.Start, in.Loc, want)
		}
	}
	if c.Malformed.Count != 0 {
		t.Errorf("malformed = %+v", c.Malformed)
	}
}

// TestSyslogYearWrap is the RFC 3164 boundary case: a UTC instant just
// after midnight on January 1st is stamped December 31st by a device in a
// western zone; with the collection window configured, the collector must
// assign the *previous* year rather than jumping twelve months forward.
func TestSyslogYearWrap(t *testing.T) {
	c, st := newCollector(t)
	c.WindowStart = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	c.WindowEnd = c.WindowStart.Add(7 * 24 * time.Hour)
	// chi-per1 is in America/Chicago (UTC-6 in winter): UTC 2010-01-01
	// 02:00 is local 2009-12-31 20:00.
	ingest(t, c, SourceSyslog,
		"Dec 31 20:00:00 chi-per1 %SYS-5-RESTART: System restarted\n")
	finalize(t, c)
	got := st.All(event.RouterReboot)
	if len(got) != 1 {
		t.Fatalf("reboots = %d", len(got))
	}
	want := time.Date(2010, 1, 1, 2, 0, 0, 0, time.UTC)
	if !got[0].Start.Equal(want) {
		t.Errorf("reboot at %v, want %v (year-wrap resolved)", got[0].Start, want)
	}
	// Without a window, the configured year is taken at face value.
	c2, st2 := newCollector(t)
	ingest(t, c2, SourceSyslog,
		"Dec 31 20:00:00 chi-per1 %SYS-5-RESTART: System restarted\n")
	finalize(t, c2)
	if got := st2.All(event.RouterReboot); !got[0].Start.Equal(time.Date(2011, 1, 1, 2, 0, 0, 0, time.UTC)) {
		t.Errorf("windowless reboot at %v", got[0].Start)
	}
}

func TestInterfaceFlapPairing(t *testing.T) {
	c, st := newCollector(t)
	ingest(t, c, SourceSyslog, strings.Join([]string{
		"Jan  2 06:00:00 chi-per1 %LINK-3-UPDOWN: Interface to-custB, changed state to down",
		"Jan  2 06:00:40 chi-per1 %LINK-3-UPDOWN: Interface to-custB, changed state to up",
		"Jan  2 06:00:01 chi-per1 %LINEPROTO-5-UPDOWN: Line protocol on Interface to-custB, changed state to down",
		"Jan  2 06:00:41 chi-per1 %LINEPROTO-5-UPDOWN: Line protocol on Interface to-custB, changed state to up",
		// A lone down with no up: down event only, no flap.
		"Jan  2 09:00:00 chi-per1 %LINK-3-UPDOWN: Interface to-chi-cr1, changed state to down",
	}, "\n")+"\n")
	finalize(t, c)

	loc := locus.Between(locus.Interface, "chi-per1", "to-custB")
	flaps := st.All(event.InterfaceFlap)
	if len(flaps) != 1 || flaps[0].Loc != loc {
		t.Fatalf("flaps = %v", flaps)
	}
	if flaps[0].Duration() != 40*time.Second {
		t.Errorf("flap duration = %v", flaps[0].Duration())
	}
	if n := st.Count(event.InterfaceDown); n != 2 {
		t.Errorf("downs = %d, want 2", n)
	}
	if n := st.Count(event.InterfaceUp); n != 1 {
		t.Errorf("ups = %d, want 1", n)
	}
	if n := st.Count(event.LineProtoFlap); n != 1 {
		t.Errorf("line proto flaps = %d", n)
	}
}

func TestFlapWindowBoundary(t *testing.T) {
	c, st := newCollector(t)
	// Down and up 11 minutes apart: beyond the 10-minute flap window.
	ingest(t, c, SourceSyslog, strings.Join([]string{
		"Jan  2 06:00:00 chi-per1 %LINK-3-UPDOWN: Interface to-custB, changed state to down",
		"Jan  2 06:11:00 chi-per1 %LINK-3-UPDOWN: Interface to-custB, changed state to up",
	}, "\n")+"\n")
	finalize(t, c)
	if n := st.Count(event.InterfaceFlap); n != 0 {
		t.Errorf("flaps = %d, want 0 (outage, not flap)", n)
	}
}

func TestBGPEvents(t *testing.T) {
	c, st := newCollector(t)
	ingest(t, c, SourceSyslog, strings.Join([]string{
		"Jan  2 06:00:00 chi-per1 %BGP-5-ADJCHANGE: neighbor 10.1.0.10 Down Interface flap",
		"Jan  2 06:01:10 chi-per1 %BGP-5-ADJCHANGE: neighbor 10.1.0.10 Up",
		"Jan  2 06:00:00 chi-per1 %BGP-5-NOTIFICATION: sent to neighbor 10.1.0.10 4/0 (hold time expired)",
		"Jan  2 08:00:00 chi-per1 %BGP-5-NOTIFICATION: received from neighbor 10.1.0.10 6/4 (administrative reset)",
	}, "\n")+"\n")
	finalize(t, c)

	loc := locus.Between(locus.RouterNeighbor, "chi-per1", "10.1.0.10")
	flaps := st.All(event.EBGPFlap)
	if len(flaps) != 1 || flaps[0].Loc != loc {
		t.Fatalf("eBGP flaps = %v", flaps)
	}
	if flaps[0].Attr("reason") != "Interface flap" {
		t.Errorf("reason attr = %q", flaps[0].Attr("reason"))
	}
	if n := st.Count(event.EBGPHoldTimerExpired); n != 1 {
		t.Errorf("HTE = %d", n)
	}
	if n := st.Count(event.CustomerResetSession); n != 1 {
		t.Errorf("resets = %d", n)
	}
	if n := st.Count(event.BGPNotification); n != 2 {
		t.Errorf("notifications = %d", n)
	}
}

func TestPIMEvents(t *testing.T) {
	c, st := newCollector(t)
	n := c.Topo
	nycLoop := n.Routers["nyc-per1"].Loopback.String()
	// VRF adjacency: chi-per1 loses its PE neighbor nyc-per1 and regains it.
	// Uplink adjacency: chi-per1 loses its directly connected core.
	up, _ := n.InterfaceByName("chi-per1", "to-chi-cr1")
	coreIP := up.Link.Other("chi-per1").IP.String()
	ingest(t, c, SourceSyslog, strings.Join([]string{
		"Jan  2 06:00:00 chi-per1 %PIM-5-NBRCHG: VRF custA: neighbor " + nycLoop + " DOWN",
		"Jan  2 06:01:00 chi-per1 %PIM-5-NBRCHG: VRF custA: neighbor " + nycLoop + " UP",
		"Jan  2 07:00:00 chi-per1 %PIM-5-NBRCHG: neighbor " + coreIP + " DOWN on interface to-chi-cr1",
	}, "\n")+"\n")
	finalize(t, c)

	adj := st.All(event.PIMAdjacencyChange)
	if len(adj) != 1 {
		t.Fatalf("PIM adjacency changes = %v", adj)
	}
	if adj[0].Loc != locus.Between(locus.RouterNeighbor, "chi-per1", "nyc-per1") {
		t.Errorf("adjacency loc = %v", adj[0].Loc)
	}
	if adj[0].Duration() != time.Minute {
		t.Errorf("adjacency duration = %v", adj[0].Duration())
	}
	if adj[0].Attr("vrf") != "custA" {
		t.Errorf("vrf attr = %q", adj[0].Attr("vrf"))
	}
	upl := st.All(event.PIMUplinkAdjacencyChange)
	if len(upl) != 1 || upl[0].Loc != locus.Between(locus.RouterNeighbor, "chi-per1", "chi-cr1") {
		t.Fatalf("uplink adjacency = %v", upl)
	}
}

func TestSNMPDetectors(t *testing.T) {
	c, st := newCollector(t)
	ingest(t, c, SourceSNMP, strings.Join([]string{
		"1262304000,chi-per1.net.example.com,cpu5min,,87.5", // high
		"1262304300,chi-per1,cpu5min,,42.0",                 // normal
		"1262304000,CHI-CR1,ifutil,to-chi-cr2,92.0",         // congested
		"1262304000,chi-cr1,ifutil,to-nyc-chi-1,10.0",       // fine
		"1262304000,chi-cr1,iferrors,to-chi-cr2,340",        // lossy
		"1262304000,chi-cr1,iferrors,to-chi-per1,3",         // fine
	}, "\n")+"\n")
	finalize(t, c)

	cpu := st.All(event.CPUHighAverage)
	if len(cpu) != 1 || cpu[0].Loc.A != "chi-per1" {
		t.Fatalf("cpu high = %v", cpu)
	}
	if !cpu[0].Start.Equal(time.Unix(1262304000, 0).UTC()) || cpu[0].Duration() != 5*time.Minute {
		t.Errorf("cpu interval = %v + %v", cpu[0].Start, cpu[0].Duration())
	}
	if n := st.Count(event.LinkCongestion); n != 1 {
		t.Errorf("congestion = %d", n)
	}
	if n := st.Count(event.LinkLoss); n != 1 {
		t.Errorf("loss = %d", n)
	}
}

func TestOSPFMonInference(t *testing.T) {
	c, st := newCollector(t)
	n := c.Topo
	l := n.Links["chi-wdc-1"]
	aIP, loopA := l.A.IP.String(), l.A.Router.Loopback.String()

	feed := strings.Join([]string{
		// Initial flood: no events.
		"2010-01-01T00:00:00Z " + loopA + " " + aIP + " metric 10 initial",
		// Cost out at 06:00, cost back in at 06:30.
		"2010-01-01T06:00:00Z " + loopA + " " + aIP + " metric 65535",
		"2010-01-01T06:30:00Z " + loopA + " " + aIP + " metric 10",
		// Re-flood of same metric: no events.
		"2010-01-01T07:00:00Z " + loopA + " " + aIP + " metric 10",
	}, "\n") + "\n"
	ingest(t, c, SourceOSPFMon, feed)
	finalize(t, c)

	// Re-convergence at both endpoint interfaces for each real change.
	if got := st.Count(event.OSPFReconvergence); got != 4 {
		t.Errorf("reconvergence events = %d, want 4 (2 changes × 2 interfaces)", got)
	}
	if got := st.Count(event.LinkCostOutDown); got != 2 {
		t.Errorf("cost out = %d, want 2", got)
	}
	if got := st.Count(event.LinkCostInUp); got != 2 {
		t.Errorf("cost in = %d, want 2", got)
	}
	// The OSPF simulation reflects the timeline.
	atOut := time.Date(2010, 1, 1, 6, 15, 0, 0, time.UTC)
	if w := c.OSPF.WeightAt("chi-wdc-1", atOut); w < 1<<20 {
		t.Errorf("weight during cost-out = %d", w)
	}
}

func TestOutOfOrderStatefulFeedRestored(t *testing.T) {
	// The OSPF weight timeline rejects out-of-order changes, so Ingest
	// must restore record order on stateful feeds before parsing: a
	// scrambled monitor feed yields exactly the events of the sorted one.
	c, st := newCollector(t)
	l := c.Topo.Links["chi-wdc-1"]
	aIP, loopA := l.A.IP.String(), l.A.Router.Loopback.String()

	feed := strings.Join([]string{
		"2010-01-01T06:30:00Z " + loopA + " " + aIP + " metric 10",
		"2010-01-01T00:00:00Z " + loopA + " " + aIP + " metric 10 initial",
		"2010-01-01T06:00:00Z " + loopA + " " + aIP + " metric 65535",
	}, "\n") + "\n"
	ingest(t, c, SourceOSPFMon, feed)
	finalize(t, c)

	if c.Malformed.Count != 0 {
		t.Fatalf("malformed = %+v, want out-of-order lines reordered, not rejected", c.Malformed)
	}
	if got := st.Count(event.LinkCostOutDown); got != 2 {
		t.Errorf("cost out = %d, want 2", got)
	}
	if got := st.Count(event.LinkCostInUp); got != 2 {
		t.Errorf("cost in = %d, want 2", got)
	}
	atOut := time.Date(2010, 1, 1, 6, 15, 0, 0, time.UTC)
	if w := c.OSPF.WeightAt("chi-wdc-1", atOut); w < 1<<20 {
		t.Errorf("weight during cost-out = %d, want infinity", w)
	}
}

func TestRouterCostInOutInference(t *testing.T) {
	c, st := newCollector(t)
	n := c.Topo
	// Cost out ALL internal links of chi-cr2 within a minute.
	r := n.Routers["chi-cr2"]
	var lines []string
	at := time.Date(2010, 1, 1, 6, 0, 0, 0, time.UTC)
	for _, card := range r.Cards {
		for _, p := range card.Ports {
			if p.Link == nil {
				continue
			}
			lines = append(lines,
				at.Format(time.RFC3339)+" "+r.Loopback.String()+" "+p.IP.String()+" metric 65535")
			at = at.Add(10 * time.Second)
		}
	}
	ingest(t, c, SourceOSPFMon, strings.Join(lines, "\n")+"\n")
	finalize(t, c)

	rc := st.All(event.RouterCostInOut)
	found := false
	for _, in := range rc {
		if in.Loc == locus.At(locus.Router, "chi-cr2") && in.Attr("direction") == "out" {
			found = true
		}
	}
	if !found {
		t.Errorf("router cost out not inferred: %v", rc)
	}
}

func TestBGPMonAndEgressChanges(t *testing.T) {
	c, st := newCollector(t)
	n := c.Topo
	chiLoop := n.Routers["chi-per1"].Loopback.String()
	wdcLoop := n.Routers["wdc-per1"].Loopback.String()
	feed := strings.Join([]string{
		"1262304000|A|198.51.100.0/24|" + chiLoop + "|100|3|0|0",
		"1262304000|A|198.51.100.0/24|" + wdcLoop + "|100|3|0|0",
		"1262307600|W|198.51.100.0/24|" + chiLoop,
	}, "\n") + "\n"
	ingest(t, c, SourceBGPMon, feed)
	finalize(t, c)

	pfx := netip.MustParsePrefix("198.51.100.0/24")
	from := time.Unix(1262303000, 0).UTC()
	to := time.Unix(1262310000, 0).UTC()
	c.EmitEgressChanges([]string{"nyc-per1"}, []netip.Prefix{pfx}, from, to)

	ch := st.All(event.BGPEgressChange)
	if len(ch) != 1 {
		t.Fatalf("egress changes = %v", ch)
	}
	if ch[0].Attr("old") != "chi-per1" || ch[0].Attr("new") != "wdc-per1" {
		t.Errorf("change attrs = %v", ch[0].Attrs.Map())
	}
	if ch[0].Loc != locus.Between(locus.IngressDestination, "nyc-per1", "198.51.100.0/24") {
		t.Errorf("change loc = %v", ch[0].Loc)
	}
}

func TestTACACSAndWorkflow(t *testing.T) {
	c, st := newCollector(t)
	ingest(t, c, SourceTACACS, strings.Join([]string{
		"2010-01-02T00:00:00-06:00|chi-cr1|ops|cost-out interface to-chi-cr2",
		"2010-01-02T00:30:00-06:00|chi-cr1|ops|cost-in interface to-chi-cr2",
		"2010-01-02T01:00:00Z|chi-per1|prov|mvpn custA add",
		"2010-01-02T02:00:00Z|chi-per1|someone|show version",
	}, "\n")+"\n")
	c.EmitGenericSignatures = true
	ingest(t, c, SourceWorkflow,
		"2010-01-02T03:00:00Z|chi-per1|TKT1|provision-customer\n")
	finalize(t, c)

	out := st.All(event.CommandCostOut)
	if len(out) != 1 || out[0].Loc != locus.Between(locus.Interface, "chi-cr1", "to-chi-cr2") {
		t.Fatalf("cost-out commands = %v", out)
	}
	// TACACS zone offset normalized to UTC.
	if want := time.Date(2010, 1, 2, 6, 0, 0, 0, time.UTC); !out[0].Start.Equal(want) {
		t.Errorf("cost-out at %v, want %v", out[0].Start, want)
	}
	if n := st.Count(event.CommandCostIn); n != 1 {
		t.Errorf("cost-in = %d", n)
	}
	if n := st.Count(event.PIMConfigChange); n != 1 {
		t.Errorf("pim config changes = %d", n)
	}
	if n := st.Count(event.ProvisioningActivity); n != 1 {
		t.Errorf("provisioning = %d", n)
	}
	if n := st.Count("workflow:provision-customer"); n != 1 {
		t.Errorf("generic workflow series = %d", n)
	}
}

func TestLayer1(t *testing.T) {
	c, st := newCollector(t)
	ingest(t, c, SourceLayer1, strings.Join([]string{
		"2010/01/02 03:04:05 -0500|sonet-chi-per1-a|SONET-APS|protection switch",
		"2010/01/02 03:04:05 +0000|mesh-nyc-cr1|MESH-RESTORE|fast",
		"2010/01/02 03:05:05 +0000|mesh-nyc-cr1|MESH-RESTORE|regular",
	}, "\n")+"\n")
	finalize(t, c)
	s := st.All(event.SONETRestoration)
	if len(s) != 1 {
		t.Fatalf("sonet = %v", s)
	}
	if want := time.Date(2010, 1, 2, 8, 4, 5, 0, time.UTC); !s[0].Start.Equal(want) {
		t.Errorf("sonet at %v, want %v", s[0].Start, want)
	}
	if st.Count(event.OpticalFast) != 1 || st.Count(event.OpticalRegular) != 1 {
		t.Error("optical restorations miscounted")
	}
}

func TestPerfBaselines(t *testing.T) {
	c, st := newCollector(t)
	var lines []string
	epoch := int64(1262304000)
	// 24 normal samples establish the baseline, then one bad bin.
	for i := 0; i < 24; i++ {
		lines = append(lines,
			itoa(epoch)+",nyc-per1,chi-per1,23.0,0.0,940")
		epoch += 300
	}
	lines = append(lines, itoa(epoch)+",nyc-per1,chi-per1,80.0,2.5,400")
	ingest(t, c, SourcePerfMon, strings.Join(lines, "\n")+"\n")
	finalize(t, c)

	if n := st.Count(event.DelayIncrease); n != 1 {
		t.Errorf("delay increases = %d", n)
	}
	if n := st.Count(event.LossIncrease); n != 1 {
		t.Errorf("loss increases = %d", n)
	}
	if n := st.Count(event.ThroughputDrop); n != 1 {
		t.Errorf("throughput drops = %d", n)
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func TestKeynoteAndServerLogs(t *testing.T) {
	c, st := newCollector(t)
	var lines []string
	epoch := int64(1262304000)
	for i := 0; i < 24; i++ {
		lines = append(lines, itoa(epoch)+",cdn-nyc-s1,agent-1,41.0,8800")
		epoch += 300
	}
	lines = append(lines, itoa(epoch)+",cdn-nyc-s1,agent-1,140.0,2000")
	ingest(t, c, SourceKeynote, strings.Join(lines, "\n")+"\n")
	ingest(t, c, SourceServer, strings.Join([]string{
		itoa(epoch) + ",load,cdn-nyc-s1,97",
		itoa(epoch) + ",load,cdn-nyc-s1,20",
		itoa(epoch) + ",policy,cdn-nyc,rebalance-7",
	}, "\n")+"\n")
	finalize(t, c)

	if n := st.Count(event.CDNRTTIncrease); n != 1 {
		t.Errorf("rtt increases = %d", n)
	}
	if n := st.Count(event.CDNThroughputDrop); n != 1 {
		t.Errorf("throughput drops = %d", n)
	}
	if n := st.Count(event.CDNServerIssue); n != 1 {
		t.Errorf("server issues = %d", n)
	}
	if n := st.Count(event.CDNPolicyChange); n != 1 {
		t.Errorf("policy changes = %d", n)
	}
}

func TestMalformedLinesTallied(t *testing.T) {
	c, _ := newCollector(t)
	bad := strings.Join([]string{
		"Jan  2 06:00:00 unknown-router %SYS-5-RESTART: System restarted",
		"garbage",
		"Jan  2 06:00:00 chi-per1 no-tag-here",
		"Jan  2 06:00:00 chi-per1 %LINK-3-UPDOWN: Interface x, changed state to sideways",
	}, "\n") + "\n"
	ingest(t, c, SourceSyslog, bad)
	ingest(t, c, SourceSNMP, "not,enough\n1262304000,chi-per1,wat,,5\n")
	ingest(t, c, SourceOSPFMon, "2010-01-01T00:00:00Z bad\n")
	ingest(t, c, SourceBGPMon, "xx|A|nope\n")
	ingest(t, c, SourceTACACS, "2010|x\n")
	ingest(t, c, SourceLayer1, "2010/01/02 00:00:00 +0000|ghost-dev|SONET-APS|x\n")
	finalize(t, c)
	if c.Malformed.Count != 10 {
		t.Errorf("malformed count = %d, want 10 (%v)", c.Malformed.Count, c.Malformed.Samples)
	}
	if len(c.Malformed.Samples) == 0 {
		t.Error("no samples recorded")
	}
}

func TestIngestLifecycleErrors(t *testing.T) {
	c, _ := newCollector(t)
	if err := c.Ingest("no-such-source", strings.NewReader("")); err == nil {
		t.Error("unknown source accepted")
	}
	finalize(t, c)
	if err := c.Finalize(); err == nil {
		t.Error("double Finalize accepted")
	}
	if err := c.Ingest(SourceSyslog, strings.NewReader("")); err == nil {
		t.Error("Ingest after Finalize accepted")
	}
}

// TestSourcesIsIngestsList: Ingest accepts every entry of Sources, once
// each, and refuses any other name — near misses and the "derived"
// pseudo-source included.
func TestSourcesIsIngestsList(t *testing.T) {
	c, _ := newCollector(t)
	seen := map[string]bool{}
	for _, src := range Sources {
		if seen[src] {
			t.Errorf("%q listed twice", src)
		}
		seen[src] = true
		if err := c.Ingest(src, strings.NewReader("")); err != nil {
			t.Errorf("Ingest(%q) = %v", src, err)
		}
	}
	refused := []string{"", "derived", "unknown", "routing", "SYSLOG", "Syslog", "syslog ", "snmp\n", "perf", "serverlogs"}
	for _, src := range Sources {
		refused = append(refused, src+"x", strings.ToUpper(src), src[1:])
	}
	for _, src := range refused {
		if seen[src] {
			continue
		}
		if err := c.Ingest(src, strings.NewReader("")); err == nil {
			t.Errorf("Ingest(%q) accepted a source not in Sources", src)
		}
	}
}

func TestCommentsAndBlanksSkipped(t *testing.T) {
	c, st := newCollector(t)
	ingest(t, c, SourceSNMP, "# header comment\n\n1262304000,chi-per1,cpu5min,,99\n")
	finalize(t, c)
	if st.Count(event.CPUHighAverage) != 1 || c.Malformed.Count != 0 {
		t.Error("comment/blank handling wrong")
	}
}

func TestErrorBudgetQuarantine(t *testing.T) {
	c, st := newCollector(t)
	setBudget(t, 10, 0.5)
	var b strings.Builder
	// Nine good lines, then a run of garbage that blows the 50% budget,
	// then a good line that must never be reached.
	for i := 0; i < 9; i++ {
		b.WriteString("Jan  2 06:00:0" + strconv.Itoa(i) + " chi-per1 %SYS-5-RESTART: System restarted\n")
	}
	for i := 0; i < 12; i++ {
		b.WriteString("total garbage line\n")
	}
	b.WriteString("Jan  2 07:00:00 nyc-per1 %SYS-5-RESTART: System restarted\n")
	ingest(t, c, SourceSyslog, b.String())

	s := c.Sources[SourceSyslog]
	if !s.Quarantined() {
		t.Fatalf("source not quarantined: %+v", s)
	}
	// Quarantine trips at the first malformed line where lines ≥ 10 and
	// malformed > 50%: after 9 good + 10 bad = 19 lines, 10 malformed.
	if s.Lines != 19 || s.Malformed != 10 {
		t.Errorf("stats at quarantine: %+v", s)
	}
	finalize(t, c)
	if got := st.Count(event.RouterReboot); got != 9 {
		t.Errorf("events before quarantine = %d, want 9 (tail must be skipped)", got)
	}
	if q := c.Summary().Quarantined(); len(q) != 1 || q[0] != SourceSyslog {
		t.Errorf("summary quarantined = %v", q)
	}
}

func TestErrorBudgetNotTrippedBelowMinLines(t *testing.T) {
	c, _ := newCollector(t)
	setBudget(t, 100, 0.5)
	// 20 garbage lines: 100% drop rate but below the judging floor.
	ingest(t, c, SourceSyslog, strings.Repeat("garbage\n", 20))
	if s := c.Sources[SourceSyslog]; s.Quarantined() {
		t.Errorf("quarantined below MinLines: %+v", s)
	}
}

func TestErrorBudgetDisabled(t *testing.T) {
	c, _ := newCollector(t)
	setBudget(t, 1, 1)
	ingest(t, c, SourceSyslog, strings.Repeat("garbage\n", 500))
	s := c.Sources[SourceSyslog]
	if s.Quarantined() {
		t.Errorf("MaxDropRate ≥ 1 must disable rate quarantine: %+v", s)
	}
	if s.Malformed != 500 {
		t.Errorf("malformed = %d", s.Malformed)
	}
}

func TestScannerFailureQuarantinesNotAborts(t *testing.T) {
	c, st := newCollector(t)
	// A 5 MB line exceeds the scanner's 4 MB buffer: previously this
	// aborted the whole ingest with an error; now the source quarantines
	// and the rest of the pipeline keeps going.
	huge := "Jan  2 06:00:00 chi-per1 %SYS-5-RESTART: " + strings.Repeat("x", 5<<20)
	err := c.Ingest(SourceSyslog, strings.NewReader(
		"Jan  2 06:00:00 chi-per1 %SYS-5-RESTART: System restarted\n"+huge+"\n"))
	if err != nil {
		t.Fatalf("scanner failure must not abort ingest: %v", err)
	}
	s := c.Sources[SourceSyslog]
	if !s.Quarantined() || !strings.Contains(s.Quarantine, "scan failed") {
		t.Errorf("quarantine = %q", s.Quarantine)
	}
	// Other sources remain ingestible.
	ingest(t, c, SourceSNMP, "1262304000,chi-per1,cpu5min,,87.5\n")
	finalize(t, c)
	if st.Count(event.RouterReboot) != 1 {
		t.Errorf("events before scan failure lost")
	}
}

// TestFeedTimesOutOfRange: a line stamped at an instant the durable logs
// cannot hold is malformed before it touches any state — one case per
// time-reader family, each with the text of event.ErrTimeRange — stores
// nothing, and counts against its source's error budget.
func TestFeedTimesOutOfRange(t *testing.T) {
	c, st := newCollector(t)
	l := c.Topo.Links["chi-wdc-1"]
	aIP, loopA := l.A.IP.String(), l.A.Router.Loopback.String()
	chiLoop := c.Topo.Routers["chi-per1"].Loopback.String()
	cases := []struct{ family, source, line string }{
		{"epoch, read in place", SourceSNMP, "99999999999,chi-per1,cpu5min,,87.5"},
		{"epoch whose 5-minute bin ends past MaxTime", SourceSNMP, "9223372036,chi-per1,cpu5min,,87.5"},
		{"epoch before MinTime", SourceBGPMon, "-99999999999|A|198.51.100.0/24|" + chiLoop + "|100|3|0|0"},
		{"epoch, read in place", SourcePerfMon, "99999999999,nyc-per1,chi-per1,23.0,0.0,940"},
		{"epoch, read by strconv", SourceKeynote, "99999999999,cdn-nyc-s1,agent-1,41.0,8800"},
		{"epoch, read by strconv", SourceServer, "99999999999,policy,cdn-nyc,rebalance-7"},
		{"RFC 3339 Zulu, read in place", SourceOSPFMon, "9999-01-01T00:00:00Z " + loopA + " " + aIP + " metric 65535"},
		{"RFC 3339 with an offset, read by time.Parse", SourceOSPFMon, "1600-01-01T00:00:00+01:00 " + loopA + " " + aIP + " metric 65535"},
		{"RFC 3339, read by time.Parse", SourceTACACS, "9999-01-02T01:00:00Z|chi-per1|prov|mvpn custA add"},
		{"RFC 3339, read by time.Parse", SourceWorkflow, "1066-10-14T09:00:00Z|chi-per1|TKT1|provision-customer"},
		{"the layer-1 layout", SourceLayer1, "9999/01/02 03:04:05 +0000|mesh-nyc-cr1|MESH-RESTORE|fast"},
	}
	for i, tc := range cases {
		ingest(t, c, tc.source, tc.line+"\n")
		want := fmt.Sprintf("%s: %q: %v", tc.source, tc.line, event.ErrTimeRange)
		if c.Malformed.Count != i+1 || c.Malformed.Samples[i] != want {
			t.Fatalf("%s (%s): malformed %d, last sample %q, want %q", tc.family, tc.source, c.Malformed.Count, c.Malformed.Samples[len(c.Malformed.Samples)-1], want)
		}
	}
	finalize(t, c)
	if st.Len() != 0 {
		t.Fatalf("%d events stored from lines stamped outside the logs' range: %v", st.Len(), st.All(event.CPUHighAverage))
	}
	if w := c.OSPF.WeightAt("chi-wdc-1", time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)); w >= 1<<20 {
		t.Errorf("a rejected OSPF line costed the link out: weight %d", w)
	}

	// Against the budget like any malformed line: the feed sorts them last,
	// and the second takes the drop rate to 2/4.
	c, _ = newCollector(t)
	setBudget(t, 2, 0.4)
	ingest(t, c, SourceSNMP, "1262304000,chi-per1,cpu5min,,87.5\n99999999999,chi-per1,cpu5min,,87.5\n99999999999,chi-per1,cpu5min,,88.5\n1262304300,chi-per1,cpu5min,,87.5\n")
	if s := c.Sources[SourceSNMP]; s.Quarantine == "" || s.Malformed != 2 || s.Parsed != 2 {
		t.Fatalf("snmp with two out-of-range lines of four: %+v, want quarantined", *s)
	}
}
