package collector

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// baseline is a rolling-median reference for one measured quantity on one
// measurement pair. Deviations are judged against the median of the last
// window samples, which tracks slow drift while staying robust to the
// outliers we are trying to detect.
type baseline struct {
	window []float64
	cap    int
}

func newBaseline(cap int) *baseline { return &baseline{cap: cap} }

// observe records a sample and returns the median *before* the sample was
// added plus whether enough history exists to judge deviations.
func (b *baseline) observe(v float64) (median float64, ready bool) {
	median, ready = b.median()
	b.window = append(b.window, v)
	if len(b.window) > b.cap {
		b.window = b.window[1:]
	}
	return median, ready
}

func (b *baseline) median() (float64, bool) {
	n := len(b.window)
	if n < 3 {
		return 0, false
	}
	s := append([]float64(nil), b.window...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

const baselineWindow = 24 // two hours of 5-minute samples

// perfMonLine ingests the in-network active measurement feed (probe
// traffic between PoP pairs), one CSV row per pair per 5-minute bin:
//
//	epoch,ingress,egress,delay_ms,loss_pct,tput_mbps
//	1262304000,nyc-per1,chi-per1,23.1,0.0,940
//
// The detectors compare each sample against the pair's rolling median and
// emit the Table I events "In-network delay increase" (delay above
// delayFactor × median), "In-network loss increase" (loss above median +
// lossDelta points), and "In-network throughput drop" (throughput below
// tputFactor × median).
func (c *Collector) perfMonLine(line []byte) error {
	scr := c.scr
	f := scr.split(line, ',')
	if len(f) != 6 {
		return fmt.Errorf("want 6 fields, got %d", len(f))
	}
	epoch, ok := parseInt(f[0])
	if !ok {
		return fmt.Errorf("bad epoch %q", f[0])
	}
	start, err := feedTime(time.Unix(epoch, 0), 5*time.Minute)
	if err != nil {
		return err
	}
	end := start.Add(5 * time.Minute)
	ingress, err := c.canonical(f[1])
	if err != nil {
		return err
	}
	egress, err := c.canonical(f[2])
	if err != nil {
		return err
	}
	var vals [3]float64
	for i := range vals {
		if vals[i], ok = parseFloat(f[3+i]); !ok {
			return fmt.Errorf("bad measurement %q", f[3+i])
		}
	}
	delay, loss, tput := vals[0], vals[1], vals[2]
	loc := locus.Between(locus.IngressEgress, ingress, egress)

	// The baselines are keyed "<loc.Key()>/<kind>", built in scratch.
	scr.key = append(scr.key[:0], loc.Type.String()...)
	scr.key = append(append(append(append(scr.key, '|'), ingress...), '|'), egress...)
	base := len(scr.key)

	scr.key = append(scr.key[:base], "/delay"...)
	c.judgeKey(scr.key, delay, func(med float64) bool {
		return delay > med*delayFactor
	}, func() {
		c.add(event.DelayIncrease, start, end, loc, map[string]string{"delay_ms": string(f[3])})
	})
	scr.key = append(scr.key[:base], "/loss"...)
	c.judgeKey(scr.key, loss, func(med float64) bool {
		return loss > med+lossDelta
	}, func() {
		c.add(event.LossIncrease, start, end, loc, map[string]string{"loss_pct": string(f[4])})
	})
	scr.key = append(scr.key[:base], "/tput"...)
	c.judgeKey(scr.key, tput, func(med float64) bool {
		return med > 0 && tput < med*tputFactor
	}, func() {
		c.add(event.ThroughputDrop, start, end, loc, map[string]string{"tput_mbps": string(f[5])})
	})
	return nil
}

// judgeKey runs one rolling-baseline detector. The key is only copied to
// a string when a new baseline is created.
func (c *Collector) judgeKey(key []byte, v float64, breach func(median float64) bool, emit func()) {
	b := c.perfBase[string(key)] // no-alloc map probe
	if b == nil {
		b = newBaseline(baselineWindow)
		c.perfBase[string(key)] = b
	}
	if med, ready := b.observe(v); ready && breach(med) {
		emit()
	}
}

// parseKeynote ingests the CDN measurement agents' feed (the paper's
// Keynote data), one CSV row per (server, agent) measurement:
//
//	epoch,server,agent,rtt_ms,tput_kbps
//	1262304000,cdn-nyc-s1,agent-1,41.0,8800
//
// Detectors emit "CDN round trip time increase" (RTT above delayFactor ×
// rolling median) and "CDN end-to-end throughput drop" (below tputFactor ×
// median) at the server:client location.
func (c *Collector) parseKeynote(line string) error {
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
	server, agent := parts[1], parts[2]
	rtt, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return fmt.Errorf("bad rtt %q", parts[3])
	}
	tput, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return fmt.Errorf("bad throughput %q", parts[4])
	}
	loc := locus.Between(locus.ServerClient, server, agent)
	key := loc.Key()

	b := c.keyBase[key+"/rtt"]
	if b == nil {
		b = newBaseline(baselineWindow)
		c.keyBase[key+"/rtt"] = b
	}
	if med, ready := b.observe(rtt); ready && rtt > med*delayFactor {
		c.add(event.CDNRTTIncrease, start, end, loc, map[string]string{"rtt_ms": parts[3]})
	}
	b = c.keyBase[key+"/tput"]
	if b == nil {
		b = newBaseline(baselineWindow)
		c.keyBase[key+"/tput"] = b
	}
	if med, ready := b.observe(tput); ready && med > 0 && tput < med*tputFactor {
		c.add(event.CDNThroughputDrop, start, end, loc, map[string]string{"tput_kbps": parts[4]})
	}
	return nil
}

// parseServerLog ingests CDN server/node logs:
//
//	epoch,load,cdn-nyc-s1,97          (server load percent)
//	epoch,policy,cdn-nyc,rebalance-7  (assignment policy change at a node)
//
// High load yields "CDN server issue" at the server; a policy record
// yields "CDN assignment policy change" at the node.
func (c *Collector) parseServerLog(line string) error {
	parts := strings.Split(line, ",")
	if len(parts) != 4 {
		return fmt.Errorf("want 4 fields, got %d", len(parts))
	}
	epoch, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad epoch %q", parts[0])
	}
	at, err := feedTime(time.Unix(epoch, 0), 5*time.Minute)
	if err != nil {
		return err
	}
	switch parts[1] {
	case "load":
		load, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return fmt.Errorf("bad load %q", parts[3])
		}
		if load >= serverLoadPct {
			c.add(event.CDNServerIssue, at, at.Add(5*time.Minute),
				locus.At(locus.Server, parts[2]), map[string]string{"load": parts[3]})
		}
	case "policy":
		c.add(event.CDNPolicyChange, at, at,
			locus.At(locus.Server, parts[2]), map[string]string{"policy": parts[3]})
	default:
		return fmt.Errorf("unknown server log record %q", parts[1])
	}
	return nil
}
