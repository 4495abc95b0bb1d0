package collector

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"grca/internal/bgp"
	"grca/internal/event"
	"grca/internal/locus"
)

// The reference parsers: the five byte-level parsers written the plain
// way, one string per line, every field through strings and the stdlib.
// They are the oracle parityCheck holds the product to — same stores,
// stats, quarantines and malformed samples with their error texts — and
// refIngest is Ingest over them.

// refIngest is Ingest over the reference parsers: the same line
// filtering, order restoration and error-budget accounting.
func (c *Collector) refIngest(source string, r io.Reader) error {
	if c.finalized {
		return fmt.Errorf("collector: Ingest after Finalize")
	}
	parse := map[string]func(string) error{
		SourceSyslog: c.parseSyslog, SourceSNMP: c.parseSNMP, SourceOSPFMon: c.parseOSPFMon,
		SourceBGPMon: c.parseBGPMon, SourcePerfMon: c.parsePerfMon, SourceTACACS: c.parseTACACS,
		SourceWorkflow: c.parseWorkflow, SourceLayer1: c.parseLayer1, SourceKeynote: c.parseKeynote,
		SourceServer: c.parseServerLog,
	}[source]
	if parse == nil {
		return fmt.Errorf("collector: unknown source %q", source)
	}
	stats := c.stats(source)
	c.curSource = source
	defer func() { c.curSource = "" }()

	type stamped struct {
		at   time.Time
		line string
	}
	var lines []stamped
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 4*1024*1024)
	for sc.Scan() {
		if line := sc.Text(); line != "" && line[0] != '#' {
			lines = append(lines, stamped{line: line})
		}
	}
	if stamp := refStamp[source]; stamp != nil {
		for i := range lines {
			lines[i].at, _ = stamp(lines[i].line)
		}
		sort.SliceStable(lines, func(i, j int) bool { return lines[i].at.Before(lines[j].at) })
	}
	for _, l := range lines {
		stats.Lines++
		err := parse(l.line)
		if err == nil {
			stats.Parsed++
			continue
		}
		c.Malformed.add(source, l.line, err)
		stats.Malformed++
		if stats.Lines >= minLines && float64(stats.Malformed) > maxDropRate*float64(stats.Lines) {
			stats.Quarantine = fmt.Sprintf("error budget exhausted: %d/%d lines malformed (> %.0f%%)",
				stats.Malformed, stats.Lines, 100*maxDropRate)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		stats.Quarantine = fmt.Sprintf("scan failed: %v", err)
	}
	return nil
}

// refStamp is lineStamp over strings.
var refStamp = map[string]func(string) (time.Time, bool){
	SourceOSPFMon: refStampRFC3339Field,
	SourceBGPMon:  refStampEpochUntil('|'),
	SourceSNMP:    refStampEpochUntil(','),
	SourcePerfMon: refStampEpochUntil(','),
	SourceKeynote: refStampEpochUntil(','),
	SourceServer:  refStampEpochUntil(','),
}

func refStampRFC3339Field(line string) (time.Time, bool) {
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		i = len(line)
	}
	at, err := time.Parse(time.RFC3339, line[:i])
	if err != nil {
		return time.Time{}, false
	}
	return at, true
}

func refStampEpochUntil(sep byte) func(string) (time.Time, bool) {
	return func(line string) (time.Time, bool) {
		i := strings.IndexByte(line, sep)
		if i < 0 {
			return time.Time{}, false
		}
		secs, err := strconv.ParseInt(line[:i], 10, 64)
		if err != nil {
			return time.Time{}, false
		}
		return time.Unix(secs, 0).UTC(), true
	}
}

// parseSyslog is the reference twin of syslogLine.
func (c *Collector) parseSyslog(line string) error {
	ts, rest, err := c.splitSyslogTime(line)
	if err != nil {
		return err
	}
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("missing device field")
	}
	device, msg := rest[:sp], strings.TrimSpace(rest[sp+1:])
	router, err := c.Aliases.Canonical(device)
	if err != nil {
		return err
	}
	at := c.resolveSyslogYear(ts, c.location(router))

	if !strings.HasPrefix(msg, "%") {
		return fmt.Errorf("missing facility tag")
	}
	colon := strings.IndexByte(msg, ':')
	if colon < 0 {
		return fmt.Errorf("missing message separator")
	}
	tag, body := msg[1:colon], strings.TrimSpace(msg[colon+1:])

	if c.EmitGenericSignatures {
		c.add("syslog:"+tag, at, at, locus.At(locus.Router, router), nil)
	}

	switch tag {
	case "LINK-3-UPDOWN":
		return c.syslogUpDown(c.ifaceTrans, router, at, body, "Interface ")
	case "LINEPROTO-5-UPDOWN":
		return c.syslogUpDown(c.protoTrans, router, at, body, "Line protocol on Interface ")
	case "BGP-5-ADJCHANGE":
		return c.syslogBGPAdj(router, at, body)
	case "BGP-5-NOTIFICATION":
		return c.syslogBGPNotif(router, at, body)
	case "SYS-5-RESTART":
		c.add(event.RouterReboot, at, at, locus.At(locus.Router, router), nil)
	case "SYS-1-CPURISINGTHRESHOLD":
		c.add(event.CPUHighSpike, at, at, locus.At(locus.Router, router),
			map[string]string{"detail": body})
	case "PIM-5-NBRCHG":
		return c.syslogPIM(router, at, body)
	}
	return nil
}

// splitSyslogTime parses the leading "Jan  2 15:04:05 " and returns the
// wall time (year filled from c.Year) plus the remainder.
func (c *Collector) splitSyslogTime(line string) (time.Time, string, error) {
	if len(line) < 16 {
		return time.Time{}, "", fmt.Errorf("line too short")
	}
	stamp := line[:15]
	ts, err := time.Parse("Jan _2 15:04:05", stamp)
	if err != nil {
		return time.Time{}, "", fmt.Errorf("bad timestamp %q: %v", stamp, err)
	}
	ts = time.Date(c.Year, ts.Month(), ts.Day(), ts.Hour(), ts.Minute(), ts.Second(), 0, time.UTC)
	return ts, strings.TrimSpace(line[15:]), nil
}

func (c *Collector) syslogUpDown(buf map[locus.Location][]transition, router string, at time.Time, body, prefix string) error {
	rest, ok := strings.CutPrefix(body, prefix)
	if !ok {
		return fmt.Errorf("unexpected UPDOWN body %q", body)
	}
	comma := strings.Index(rest, ", changed state to ")
	if comma < 0 {
		return fmt.Errorf("missing state clause")
	}
	ifname := rest[:comma]
	state := strings.TrimSpace(rest[comma+len(", changed state to "):])
	up := false
	switch state {
	case "up":
		up = true
	case "down":
	default:
		return fmt.Errorf("unknown state %q", state)
	}
	loc := locus.Between(locus.Interface, router, ifname)
	buf[loc] = append(buf[loc], transition{at: at, loc: loc, up: up})
	return nil
}

func (c *Collector) syslogBGPAdj(router string, at time.Time, body string) error {
	fields := strings.Fields(body)
	if len(fields) < 3 || fields[0] != "neighbor" {
		return fmt.Errorf("unexpected ADJCHANGE body %q", body)
	}
	if _, err := netip.ParseAddr(fields[1]); err != nil {
		return fmt.Errorf("bad neighbor address %q", fields[1])
	}
	loc := locus.Between(locus.RouterNeighbor, router, fields[1])
	var attr map[string]string
	if len(fields) > 3 {
		attr = map[string]string{"reason": strings.Join(fields[3:], " ")}
	}
	switch fields[2] {
	case "Up":
		c.bgpTrans[loc] = append(c.bgpTrans[loc], transition{at: at, loc: loc, up: true})
	case "Down":
		c.bgpTrans[loc] = append(c.bgpTrans[loc], transition{at: at, loc: loc, attr: attr})
	default:
		return fmt.Errorf("unknown adjacency state %q", fields[2])
	}
	return nil
}

// parseSNMP is the reference twin of snmpLine.
func (c *Collector) parseSNMP(line string) error {
	parts := strings.Split(line, ",")
	if len(parts) != 5 {
		return fmt.Errorf("want 5 fields, got %d", len(parts))
	}
	epoch, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad epoch %q", parts[0])
	}
	start, err := feedTime(time.Unix(epoch, 0), 5*time.Minute)
	if err != nil {
		return err
	}
	end := start.Add(5 * time.Minute)
	router, err := c.Aliases.Canonical(parts[1])
	if err != nil {
		return err
	}
	value, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return fmt.Errorf("bad value %q", parts[4])
	}
	object, instance := parts[2], parts[3]
	switch object {
	case "cpu5min":
		if value >= cpuAveragePct {
			c.add(event.CPUHighAverage, start, end, locus.At(locus.Router, router),
				map[string]string{"cpu": parts[4]})
		}
	case "ifutil":
		if instance == "" {
			return fmt.Errorf("ifutil without interface instance")
		}
		if value >= linkUtilPct {
			c.add(event.LinkCongestion, start, end,
				locus.Between(locus.Interface, router, instance),
				map[string]string{"util": parts[4]})
		}
	case "iferrors":
		if instance == "" {
			return fmt.Errorf("iferrors without interface instance")
		}
		if value >= linkErrorCount {
			c.add(event.LinkLoss, start, end,
				locus.Between(locus.Interface, router, instance),
				map[string]string{"errors": parts[4]})
		}
	default:
		return fmt.Errorf("unknown SNMP object %q", object)
	}
	return nil
}

// parsePerfMon is the reference twin of perfMonLine.
func (c *Collector) parsePerfMon(line string) error {
	parts := strings.Split(line, ",")
	if len(parts) != 6 {
		return fmt.Errorf("want 6 fields, got %d", len(parts))
	}
	epoch, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad epoch %q", parts[0])
	}
	start, err := feedTime(time.Unix(epoch, 0), 5*time.Minute)
	if err != nil {
		return err
	}
	end := start.Add(5 * time.Minute)
	ingress, err := c.Aliases.Canonical(parts[1])
	if err != nil {
		return err
	}
	egress, err := c.Aliases.Canonical(parts[2])
	if err != nil {
		return err
	}
	var vals [3]float64
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseFloat(parts[3+i], 64)
		if err != nil {
			return fmt.Errorf("bad measurement %q", parts[3+i])
		}
		vals[i] = v
	}
	delay, loss, tput := vals[0], vals[1], vals[2]
	loc := locus.Between(locus.IngressEgress, ingress, egress)
	key := loc.Key()

	c.judgeKey([]byte(key+"/delay"), delay, func(med float64) bool {
		return delay > med*delayFactor
	}, func() {
		c.add(event.DelayIncrease, start, end, loc, map[string]string{"delay_ms": parts[3]})
	})
	c.judgeKey([]byte(key+"/loss"), loss, func(med float64) bool {
		return loss > med+lossDelta
	}, func() {
		c.add(event.LossIncrease, start, end, loc, map[string]string{"loss_pct": parts[4]})
	})
	c.judgeKey([]byte(key+"/tput"), tput, func(med float64) bool {
		return med > 0 && tput < med*tputFactor
	}, func() {
		c.add(event.ThroughputDrop, start, end, loc, map[string]string{"tput_mbps": parts[5]})
	})
	return nil
}

// parseOSPFMon is the reference twin of ospfMonLine.
func (c *Collector) parseOSPFMon(line string) error {
	fields := strings.Fields(line)
	if len(fields) != 5 && !(len(fields) == 6 && fields[5] == "initial") {
		return fmt.Errorf("want 'ts router ifip metric N [initial]'")
	}
	at, err := time.Parse(time.RFC3339, fields[0])
	if err != nil {
		return fmt.Errorf("bad timestamp %q", fields[0])
	}
	if at, err = feedTime(at, 0); err != nil {
		return err
	}
	if _, err := netip.ParseAddr(fields[1]); err != nil {
		return fmt.Errorf("bad router address %q", fields[1])
	}
	ifip, err := netip.ParseAddr(fields[2])
	if err != nil {
		return fmt.Errorf("bad interface address %q", fields[2])
	}
	if fields[3] != "metric" {
		return fmt.Errorf("missing metric keyword")
	}
	metric, err := strconv.Atoi(fields[4])
	if err != nil || metric < 0 {
		return fmt.Errorf("bad metric %q", fields[4])
	}
	return c.applyOSPFMon(at, ifip, metric, fields[4], len(fields) == 6)
}

// parseBGPMon is the reference twin of bgpMonLine.
func (c *Collector) parseBGPMon(line string) error {
	parts := strings.Split(line, "|")
	if len(parts) < 4 {
		return fmt.Errorf("want at least 4 fields")
	}
	epoch, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad epoch %q", parts[0])
	}
	at, err := feedTime(time.Unix(epoch, 0), 0)
	if err != nil {
		return err
	}
	prefix, err := netip.ParsePrefix(parts[2])
	if err != nil {
		return fmt.Errorf("bad prefix %q", parts[2])
	}
	egress, err := c.Aliases.Canonical(parts[3])
	if err != nil {
		return err
	}
	switch parts[1] {
	case "W":
		return c.BGP.Withdraw(at, prefix, egress)
	case "A":
		if len(parts) != 8 {
			return fmt.Errorf("announce wants 8 fields, got %d", len(parts))
		}
		var nums [4]int
		for i := 0; i < 4; i++ {
			v, err := strconv.Atoi(parts[4+i])
			if err != nil {
				return fmt.Errorf("bad attribute %q", parts[4+i])
			}
			nums[i] = v
		}
		return c.BGP.Announce(at, bgp.Route{
			Prefix: prefix, Egress: egress,
			LocalPref: nums[0], ASPathLen: nums[1], MED: nums[2], Origin: nums[3],
		})
	}
	return fmt.Errorf("unknown update type %q", parts[1])
}
