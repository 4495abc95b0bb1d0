package collector

import (
	"strings"
	"testing"
	"time"

	"grca/internal/event"
)

// TestDetectorThresholdBoundaries pins each Table I detector on both
// sides of its threshold: the SNMP and server-load detectors fire at
// their threshold and not just below it; the rolling-median detectors
// (perfmon delay ×1.5, loss +0.5 points, throughput ×0.7; keynote RTT
// ×1.5 and throughput ×0.7) fire just past their threshold and not at
// it; and a down→up pair is a flap at exactly the 10-minute window and
// not a second later.
func TestDetectorThresholdBoundaries(t *testing.T) {
	// Three identical samples make a pair's baseline ready with that
	// median; the fourth line is judged against it.
	perf := func(delay, loss, tput string) []string {
		lines := make([]string, 0, 4)
		for i := int64(0); i < 3; i++ {
			lines = append(lines, itoa(1262304000+300*i)+",nyc-per1,chi-per1,20,1.0,1000")
		}
		return append(lines, "1262305200,nyc-per1,chi-per1,"+delay+","+loss+","+tput)
	}
	keynote := func(rtt, tput string) []string {
		lines := make([]string, 0, 4)
		for i := int64(0); i < 3; i++ {
			lines = append(lines, itoa(1262304000+300*i)+",cdn-nyc-s1,agent-1,40,8000")
		}
		return append(lines, "1262305200,cdn-nyc-s1,agent-1,"+rtt+","+tput)
	}
	syslogPair := func(down, up, gap string) []string {
		return []string{"Jan  2 06:00:00 chi-per1 " + down, "Jan  2 06:" + gap + " chi-per1 " + up}
	}
	const (
		ifDown  = "%LINK-3-UPDOWN: Interface to-custB, changed state to down"
		ifUp    = "%LINK-3-UPDOWN: Interface to-custB, changed state to up"
		bgpDown = "%BGP-5-ADJCHANGE: neighbor 10.1.0.10 Down Interface flap"
		bgpUp   = "%BGP-5-ADJCHANGE: neighbor 10.1.0.10 Up"
	)
	cases := []struct {
		name   string
		source string
		lines  []string
		event  string
		want   int
	}{
		{"cpu average at 80", SourceSNMP, []string{"1262304000,chi-per1,cpu5min,,80"}, event.CPUHighAverage, 1},
		{"cpu average below 80", SourceSNMP, []string{"1262304000,chi-per1,cpu5min,,79.99"}, event.CPUHighAverage, 0},
		{"link util at 80", SourceSNMP, []string{"1262304000,chi-per1,ifutil,to-chi-cr1,80"}, event.LinkCongestion, 1},
		{"link util below 80", SourceSNMP, []string{"1262304000,chi-per1,ifutil,to-chi-cr1,79.99"}, event.LinkCongestion, 0},
		{"link errors at 100", SourceSNMP, []string{"1262304000,chi-per1,iferrors,to-chi-cr1,100"}, event.LinkLoss, 1},
		{"link errors below 100", SourceSNMP, []string{"1262304000,chi-per1,iferrors,to-chi-cr1,99"}, event.LinkLoss, 0},
		{"server load at 90", SourceServer, []string{"1262304000,load,cdn-nyc-s1,90"}, event.CDNServerIssue, 1},
		{"server load below 90", SourceServer, []string{"1262304000,load,cdn-nyc-s1,89.99"}, event.CDNServerIssue, 0},

		{"perf delay past 1.5x", SourcePerfMon, perf("30.01", "1.0", "1000"), event.DelayIncrease, 1},
		{"perf delay at 1.5x", SourcePerfMon, perf("30", "1.0", "1000"), event.DelayIncrease, 0},
		{"perf delay below 1.5x", SourcePerfMon, perf("29.99", "1.0", "1000"), event.DelayIncrease, 0},
		{"perf loss past +0.5", SourcePerfMon, perf("20", "1.51", "1000"), event.LossIncrease, 1},
		{"perf loss at +0.5", SourcePerfMon, perf("20", "1.5", "1000"), event.LossIncrease, 0},
		{"perf loss below +0.5", SourcePerfMon, perf("20", "1.49", "1000"), event.LossIncrease, 0},
		{"perf throughput past 0.7x", SourcePerfMon, perf("20", "1.0", "699.9"), event.ThroughputDrop, 1},
		{"perf throughput at 0.7x", SourcePerfMon, perf("20", "1.0", "700"), event.ThroughputDrop, 0},
		{"perf throughput above 0.7x", SourcePerfMon, perf("20", "1.0", "700.1"), event.ThroughputDrop, 0},
		{"keynote rtt past 1.5x", SourceKeynote, keynote("60.01", "8000"), event.CDNRTTIncrease, 1},
		{"keynote rtt at 1.5x", SourceKeynote, keynote("60", "8000"), event.CDNRTTIncrease, 0},
		{"keynote throughput past 0.7x", SourceKeynote, keynote("40", "5599.9"), event.CDNThroughputDrop, 1},
		{"keynote throughput at 0.7x", SourceKeynote, keynote("40", "5600"), event.CDNThroughputDrop, 0},

		{"interface flap at 10m", SourceSyslog, syslogPair(ifDown, ifUp, "10:00"), event.InterfaceFlap, 1},
		{"interface flap at 10m1s", SourceSyslog, syslogPair(ifDown, ifUp, "10:01"), event.InterfaceFlap, 0},
		{"eBGP flap at 10m", SourceSyslog, syslogPair(bgpDown, bgpUp, "10:00"), event.EBGPFlap, 1},
		{"eBGP flap at 10m1s", SourceSyslog, syslogPair(bgpDown, bgpUp, "10:01"), event.EBGPFlap, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, st := newCollector(t)
			ingest(t, c, tc.source, strings.Join(tc.lines, "\n")+"\n")
			finalize(t, c)
			if c.Malformed.Count != 0 {
				t.Fatalf("malformed: %v", c.Malformed.Samples)
			}
			if got := st.Count(tc.event); got != tc.want {
				t.Errorf("%s events = %d, want %d", tc.event, got, tc.want)
			}
		})
	}

	// A PIM adjacency change is closed by an UP within the window and
	// stays a point event past it.
	for _, tc := range []struct {
		gap  string
		want time.Duration
	}{{"10:00", 10 * time.Minute}, {"10:01", 0}} {
		c, st := newCollector(t)
		nycLoop := c.Topo.Routers["nyc-per1"].Loopback.String()
		ingest(t, c, SourceSyslog, strings.Join(syslogPair(
			"%PIM-5-NBRCHG: VRF custA: neighbor "+nycLoop+" DOWN",
			"%PIM-5-NBRCHG: VRF custA: neighbor "+nycLoop+" UP", tc.gap), "\n")+"\n")
		finalize(t, c)
		adj := st.All(event.PIMAdjacencyChange)
		if len(adj) != 1 || adj[0].Duration() != tc.want {
			t.Errorf("PIM UP after 6:%s: adjacency changes %v, want one lasting %v", tc.gap, adj, tc.want)
		}
	}
}

// TestErrorBudgetBoundaries pins the default error budget: a source is
// judged from its 200th line, and quarantined only when strictly more
// than half of its lines are malformed.
func TestErrorBudgetBoundaries(t *testing.T) {
	const good = "Jan  2 06:00:00 chi-per1 %SYS-5-RESTART: System restarted\n"
	cases := []struct {
		name                string
		feed                string
		quarantine          string
		lines, malformedAll int
	}{
		{"199 malformed lines", strings.Repeat("garbage\n", 199), "", 199, 199},
		{"200 malformed lines", strings.Repeat("garbage\n", 200),
			"error budget exhausted: 200/200 lines malformed (> 50%)", 200, 200},
		{"exactly half malformed", strings.Repeat(good, 100) + strings.Repeat("garbage\n", 100) + good, "", 201, 100},
		{"just over half malformed", strings.Repeat(good, 100) + strings.Repeat("garbage\n", 101) + good,
			"error budget exhausted: 101/201 lines malformed (> 50%)", 201, 101},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newCollector(t)
			ingest(t, c, SourceSyslog, tc.feed)
			s := c.Sources[SourceSyslog]
			if s.Quarantine != tc.quarantine || s.Lines != tc.lines || s.Malformed != tc.malformedAll {
				t.Errorf("stats = %+v, want quarantine %q after %d lines, %d malformed", *s, tc.quarantine, tc.lines, tc.malformedAll)
			}
		})
	}
}
