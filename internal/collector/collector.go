// Package collector implements the G-RCA Data Collector (paper §II-A): it
// ingests raw records from heterogeneous data sources — syslog in
// device-local time, SNMP samples keyed by FQDN, OSPF and BGP monitor
// feeds keyed by addresses, TACACS command logs, layer-1 device logs,
// performance monitors — normalizes naming conventions, time zones, and
// identifiers as data is ingested, runs the signature detectors of the
// event Knowledge Library, and stores the resulting event instances so the
// RCA engine can correlate them.
//
// Raw line formats per source are documented on each source's parser.
// Malformed lines never abort ingestion: they are counted and sampled in
// Malformed, mirroring how an operational pipeline must survive dirty
// feeds.
package collector

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"grca/internal/bgp"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/netmodel"
	"grca/internal/obs"
	"grca/internal/ospf"
	"grca/internal/store"
)

// Data Collector metrics: the paper's collector normalizes ~600
// heterogeneous feeds in real time, so raw-line throughput, parse failure
// rate, and normalized-event yield are its health signals.
var (
	mLines       = obs.GetCounter("collector.lines")
	mParsed      = obs.GetCounter("collector.parsed")
	mMalformed   = obs.GetCounter("collector.malformed")
	mEvents      = obs.GetCounter("collector.events")
	mQuarantined = obs.GetCounter("collector.quarantined")
)

// Source names accepted by Ingest.
const (
	SourceSyslog   = "syslog"
	SourceSNMP     = "snmp"
	SourceOSPFMon  = "ospfmon"
	SourceBGPMon   = "bgpmon"
	SourceTACACS   = "tacacs"
	SourceWorkflow = "workflow"
	SourceLayer1   = "layer1"
	SourcePerfMon  = "perfmon"
	SourceKeynote  = "keynote"
	SourceServer   = "serverlog"
)

// Sources lists every source Ingest accepts, in the order a bundle's
// feeds are loaded: the routing feeds first, so that the reconstructed
// routing state every later feed reads does not depend on map order.
var Sources = []string{
	SourceOSPFMon, SourceBGPMon, SourceSyslog, SourceSNMP, SourceTACACS,
	SourceWorkflow, SourceLayer1, SourcePerfMon, SourceKeynote, SourceServer,
}

// The detector thresholds of the common event definitions (Table I).
const (
	cpuAveragePct  = 80               // CPU high (average)
	linkUtilPct    = 80               // Link congestion alarm
	linkErrorCount = 100              // Link loss alarm
	serverLoadPct  = 90               // CDN server issue
	flapWindow     = 10 * time.Minute // max down→up gap treated as a flap
	// delayFactor, tputFactor and lossDelta flag performance deviations
	// against the rolling per-pair baseline.
	delayFactor = 1.5
	tputFactor  = 0.7
	lossDelta   = 0.5
)

// The error budget bounds how much malformed input a single source may
// deliver before the collector quarantines it: stops consuming the feed,
// records the reason, and moves on to the other sources. Without a
// budget, one corrupted feed among the paper's ~600 floods the malformed
// tally and burns ingest time line by line; aborting the whole run for it
// would be worse. Tests lower them.
var (
	// minLines is how many raw lines a source must deliver before its
	// drop rate is judged — early garbage on a feed that recovers should
	// not condemn it.
	minLines = 200
	// maxDropRate is the malformed fraction beyond which the source is
	// quarantined. A value ≥ 1 disables rate quarantine (scanner failures
	// still quarantine — they are unrecoverable).
	maxDropRate = 0.5
)

// Malformed summarizes rejected raw lines.
type Malformed struct {
	Count   int
	Samples []string // first few offending lines with reasons
}

func (m *Malformed) add(source, line string, err error) {
	m.Count++
	if len(m.Samples) < 20 {
		m.Samples = append(m.Samples, fmt.Sprintf("%s: %q: %v", source, line, err))
	}
}

// SourceStats tallies one feed's ingestion: raw lines seen (comments and
// blanks excluded), lines parsed, lines rejected as malformed, and
// normalized event instances the feed produced.
type SourceStats struct {
	Lines     int
	Parsed    int
	Malformed int
	Events    int
	// Quarantine is non-empty when the source tripped its error budget or
	// failed at the scanner; it records why and implies the tail of the
	// feed was skipped.
	Quarantine string
}

// Quarantined reports whether the source was cut off mid-feed.
func (s SourceStats) Quarantined() bool { return s.Quarantine != "" }

// DropRate is the fraction of raw lines rejected as malformed.
func (s SourceStats) DropRate() float64 {
	if s.Lines == 0 {
		return 0
	}
	return float64(s.Malformed) / float64(s.Lines)
}

// SourceSummary is one row of an IngestSummary.
type SourceSummary struct {
	Source string
	SourceStats
}

// IngestSummary is the per-source ingestion record returned by Summary:
// what each feed delivered, what was dropped, and what it yielded — so a
// front end can warn when a feed's drop rate is nonzero instead of
// discarding bad lines silently.
type IngestSummary struct {
	Sources []SourceSummary // sorted by source name
	Totals  SourceStats
}

// Quarantined lists the names of sources cut off mid-feed, sorted.
func (s IngestSummary) Quarantined() []string {
	var out []string
	for _, src := range s.Sources {
		if src.Quarantined() {
			out = append(out, src.Source)
		}
	}
	return out
}

// Summary reports per-source ingestion statistics. Events emitted by
// Finalize's pairing passes (flaps, PIM adjacencies, router cost in/out)
// are attributed to the source whose transitions fed them.
func (c *Collector) Summary() IngestSummary {
	var out IngestSummary
	names := make([]string, 0, len(c.Sources))
	for name := range c.Sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := *c.Sources[name]
		out.Sources = append(out.Sources, SourceSummary{Source: name, SourceStats: s})
		out.Totals.Lines += s.Lines
		out.Totals.Parsed += s.Parsed
		out.Totals.Malformed += s.Malformed
		out.Totals.Events += s.Events
	}
	return out
}

// stats returns the per-source tally, creating it on first use.
func (c *Collector) stats(source string) *SourceStats {
	s := c.Sources[source]
	if s == nil {
		s = &SourceStats{}
		c.Sources[source] = s
	}
	return s
}

// transition is a buffered up/down edge awaiting flap pairing.
type transition struct {
	at   time.Time
	loc  locus.Location
	up   bool
	attr map[string]string
}

// Collector binds a parsed topology to an event store and routing
// simulations. Create with New, call Ingest per feed, then Finalize once.
type Collector struct {
	Topo    *netmodel.Topology
	Aliases *netmodel.AliasTable
	Store   store.Store
	OSPF    *ospf.Sim
	BGP     *bgp.Sim

	// Year anchors syslog timestamps, which carry no year.
	Year int
	// WindowStart/WindowEnd, when set, bound the collection period:
	// syslog wall times are assigned the candidate year (Year−1, Year, or
	// Year+1) that lands inside the window. This resolves the classic
	// RFC 3164 year-wrap: a device in a western zone stamps the first
	// hours of a January 1st collection as December 31st.
	WindowStart, WindowEnd time.Time
	// Malformed accumulates rejected input lines.
	Malformed Malformed
	// Sources tallies per-feed ingestion (lines, parsed, malformed,
	// events emitted); read it through Summary.
	Sources map[string]*SourceStats
	// EmitGenericSignatures controls whether every syslog mnemonic and
	// workflow action also produces a generic per-signature event
	// ("syslog:<MNEMONIC>", "workflow:<action>") at router granularity.
	// The correlation-mining study of §IV-B requires these candidate
	// series; bulk RCA runs can leave them off.
	EmitGenericSignatures bool

	tzCache map[string]*time.Location
	// scr is the pooled line-parsing working memory, held only for the
	// duration of one Ingest call.
	scr *scratch
	// addrCache memoizes netip parses of repeated address fields
	// (loopbacks, interface and neighbor addresses).
	addrCache map[string]netip.Addr
	// curSource names the feed being ingested, so events emitted by the
	// parsers are attributed to it; Finalize's pairing passes attribute
	// to the buffered transitions' originating source instead.
	curSource string

	// Buffers drained by Finalize.
	ifaceTrans map[locus.Location][]transition
	protoTrans map[locus.Location][]transition
	bgpTrans   map[locus.Location][]transition
	pimDown    []transition // PIM adjacency losses (paired opportunistically)
	pimUp      map[locus.Location][]time.Time
	costOut    map[string][]ospf.WeightChange // router → cost-out changes (router cost in/out inference)
	costIn     map[string][]ospf.WeightChange

	perfBase map[string]*baseline
	keyBase  map[string]*baseline

	finalized bool
}

// New builds a collector over the parsed topology. The OSPF and BGP
// simulations start empty and are populated by the respective monitor
// feeds, exactly as the paper reconstructs routing state from proactively
// collected monitoring data.
func New(topo *netmodel.Topology, st store.Store, year int) *Collector {
	c := &Collector{
		Topo:       topo,
		Aliases:    netmodel.NewAliasTable(topo),
		Store:      st,
		Year:       year,
		Sources:    map[string]*SourceStats{},
		tzCache:    map[string]*time.Location{},
		ifaceTrans: map[locus.Location][]transition{},
		protoTrans: map[locus.Location][]transition{},
		bgpTrans:   map[locus.Location][]transition{},
		pimUp:      map[locus.Location][]time.Time{},
		costOut:    map[string][]ospf.WeightChange{},
		costIn:     map[string][]ospf.WeightChange{},
		perfBase:   map[string]*baseline{},
		keyBase:    map[string]*baseline{},
	}
	c.OSPF = ospf.New(topo, nil)
	c.BGP = bgp.New(c.OSPF)
	return c
}

// Ingest parses one feed. Unknown sources are an error; malformed lines
// within a known feed are tallied in Malformed and skipped. A source that
// exhausts its error budget — or whose scanner fails outright (an absurd
// line length, a read error) — is quarantined rather than aborting the
// run: its remaining input is dropped, the reason lands in its
// SourceStats, and ingestion of the other feeds continues.
//
// The five high-volume feeds are parsed on the scanner's bytes
// (lineparse.go); the others take one string per line.
func (c *Collector) Ingest(source string, r io.Reader) error {
	if c.finalized {
		return fmt.Errorf("collector: Ingest after Finalize")
	}
	text := func(parse func(string) error) func([]byte) error {
		return func(line []byte) error { return parse(string(line)) }
	}
	var parse func(line []byte) error
	switch source {
	case SourceSyslog:
		parse = c.syslogLine
	case SourceSNMP:
		parse = c.snmpLine
	case SourceOSPFMon:
		parse = c.ospfMonLine
	case SourceBGPMon:
		parse = c.bgpMonLine
	case SourceTACACS:
		parse = text(c.parseTACACS)
	case SourceWorkflow:
		parse = text(c.parseWorkflow)
	case SourceLayer1:
		parse = text(c.parseLayer1)
	case SourcePerfMon:
		parse = c.perfMonLine
	case SourceKeynote:
		parse = text(c.parseKeynote)
	case SourceServer:
		parse = text(c.parseServerLog)
	default:
		return fmt.Errorf("collector: unknown source %q", source)
	}
	stats := c.stats(source)
	c.curSource = source
	scr := scratchPool.Get().(*scratch)
	scr.reset()
	c.scr = scr
	defer func() {
		c.curSource = ""
		c.scr = nil
		// Keep pooled memory bounded: an unusually large feed should not
		// pin its arena for the life of the process.
		if cap(scr.arena) > 8<<20 {
			scr.arena = nil
		}
		if cap(scr.spans) > 1<<16 {
			scr.spans = nil
		}
		scratchPool.Put(scr)
	}()

	// consume parses one raw line and applies the error-budget
	// accounting; it reports false once the source is quarantined.
	consume := func(line []byte) bool {
		stats.Lines++
		mLines.Inc()
		if err := parse(line); err != nil {
			c.Malformed.add(source, string(line), err)
			stats.Malformed++
			mMalformed.Inc()
			if stats.Lines >= minLines && float64(stats.Malformed) > maxDropRate*float64(stats.Lines) {
				stats.Quarantine = fmt.Sprintf("error budget exhausted: %d/%d lines malformed (> %.0f%%)",
					stats.Malformed, stats.Lines, 100*maxDropRate)
				mQuarantined.Inc()
				return false
			}
		} else {
			stats.Parsed++
			mParsed.Inc()
		}
		return true
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(scr.scanbuf, 4*1024*1024)
	if stamp := lineStamp[source]; stamp != nil {
		// Order-sensitive feed: its parser replays a state machine (OSPF
		// weights, BGP RIB) or a rolling baseline, so records delivered out
		// of time order — multi-threaded relays, retried batches — would
		// corrupt reconstructed state. Buffer the feed in the pooled arena
		// and restore record order before parsing. Lines whose timestamp
		// cannot be read sort to the front, where the parser tallies them
		// as malformed.
		for sc.Scan() {
			b := sc.Bytes()
			if len(b) == 0 || b[0] == '#' {
				continue
			}
			scr.spans = append(scr.spans, lineSpan{off: len(scr.arena), n: len(b), at: stamp(b)})
			scr.arena = append(scr.arena, b...)
		}
		sort.SliceStable(scr.spans, func(i, j int) bool { return scr.spans[i].at.Before(scr.spans[j].at) })
		for _, sp := range scr.spans {
			if !consume(scr.arena[sp.off : sp.off+sp.n]) {
				return nil
			}
		}
	} else {
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			if !consume(line) {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		stats.Quarantine = fmt.Sprintf("scan failed: %v", err)
		mQuarantined.Inc()
	}
	return nil
}

// lineStamp maps each centrally-stamped, order-sensitive source to the
// reader of its record timestamp, used by Ingest to restore record order
// before parsing; an unreadable stamp is the zero time. Syslog, TACACS,
// workflow, and layer-1 records stay in arrival order: they carry
// device-local or zoned stamps and feed point events or Finalize-sorted
// pairing buffers, which tolerate disorder by construction.
var lineStamp = map[string]func([]byte) time.Time{
	SourceOSPFMon: stampRFC3339Field,
	SourceBGPMon:  stampEpochUntil('|'),
	SourceSNMP:    stampEpochUntil(','),
	SourcePerfMon: stampEpochUntil(','),
	SourceKeynote: stampEpochUntil(','),
	SourceServer:  stampEpochUntil(','),
}

// feedTime is the one bound on the instants a feed line carries: the line
// stamped at yields events from at to at+span at most, and an instant the
// durable logs cannot hold — they write int64 nanoseconds, event.MinTime
// to event.MaxTime — makes the line malformed, with event.ErrTimeRange's
// text, before it touches any state. Every time reader returns through it.
func feedTime(at time.Time, span time.Duration) (time.Time, error) {
	if at.Before(event.MinTime) || at.Add(span).After(event.MaxTime) {
		return time.Time{}, event.ErrTimeRange
	}
	return at.UTC(), nil
}

// stampRFC3339Field reads a leading RFC 3339 timestamp field.
func stampRFC3339Field(line []byte) time.Time {
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		line = line[:i]
	}
	if at, ok := parseRFC3339(line); ok {
		return at
	}
	return time.Time{}
}

// stampEpochUntil reads a leading Unix-seconds field ended by sep.
func stampEpochUntil(sep byte) func([]byte) time.Time {
	return func(line []byte) time.Time {
		i := bytes.IndexByte(line, sep)
		if i < 0 {
			return time.Time{}
		}
		secs, ok := parseInt(line[:i])
		if !ok {
			return time.Time{}
		}
		return time.Unix(secs, 0).UTC()
	}
}

// add stores an event instance, crediting the feed being ingested.
// Events emitted outside any Ingest call (deployment materialization,
// unattributed pairing) land under the pseudo-source "derived".
func (c *Collector) add(name string, start, end time.Time, loc locus.Location, attrs map[string]string) {
	source := c.curSource
	if source == "" {
		source = "derived"
	}
	c.stats(source).Events++
	mEvents.Inc()
	c.Store.Add(event.Instance{Name: name, Start: start, End: end, Loc: loc, Attrs: event.NewAttrs(attrs)})
}

// Finalize drains the pairing buffers: flap detection over the buffered
// up/down transitions, router cost in/out inference over the cost-change
// groups, and PIM adjacency pairing. It must be called exactly once after
// all feeds are ingested.
func (c *Collector) Finalize() error {
	if c.finalized {
		return fmt.Errorf("collector: Finalize called twice")
	}
	c.finalized = true
	// Paired events derive from buffered transitions: the up/down edges
	// came from syslog, the cost-change groups from the OSPF monitor.
	c.curSource = SourceSyslog
	c.pairTransitions(c.ifaceTrans, event.InterfaceDown, event.InterfaceUp, event.InterfaceFlap)
	c.pairTransitions(c.protoTrans, event.LineProtoDown, event.LineProtoUp, event.LineProtoFlap)
	c.pairBGP()
	c.pairPIM()
	c.curSource = SourceOSPFMon
	c.inferRouterCost()
	c.curSource = ""
	return nil
}

// pairTransitions implements the down/up/flap signature family: every down
// edge yields a down event, every up edge an up event, and a down followed
// by an up on the same location within flapWindow additionally yields a
// flap spanning the pair.
func (c *Collector) pairTransitions(buf map[locus.Location][]transition, downName, upName, flapName string) {
	for _, loc := range sortedLocs(buf) {
		trans := buf[loc]
		sort.SliceStable(trans, func(i, j int) bool { return trans[i].at.Before(trans[j].at) })
		var pendingDown *transition
		for i := range trans {
			tr := &trans[i]
			if tr.up {
				c.add(upName, tr.at, tr.at, loc, tr.attr)
				if pendingDown != nil && tr.at.Sub(pendingDown.at) <= flapWindow {
					c.add(flapName, pendingDown.at, tr.at, loc, tr.attr)
				}
				pendingDown = nil
			} else {
				c.add(downName, tr.at, tr.at, loc, tr.attr)
				pendingDown = tr
			}
		}
	}
}

// sortedLocs returns a pairing buffer's locations in key order. Finalize
// emits paired events per location; iterating the buffer maps directly
// would assign store IDs in map order, making two runs over the same
// feeds (batch vs. serve replay, restart recovery) disagree on IDs.
func sortedLocs[V any](buf map[locus.Location]V) []locus.Location {
	locs := make([]locus.Location, 0, len(buf))
	for loc := range buf {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].Key() < locs[j].Key() })
	return locs
}

// pairBGP emits an eBGP flap for every ADJCHANGE Down→Up pair (a session
// that goes down and comes back; the unit of Table IV).
func (c *Collector) pairBGP() {
	for _, loc := range sortedLocs(c.bgpTrans) {
		trans := c.bgpTrans[loc]
		sort.SliceStable(trans, func(i, j int) bool { return trans[i].at.Before(trans[j].at) })
		var pendingDown *transition
		for i := range trans {
			tr := &trans[i]
			if tr.up {
				if pendingDown != nil && tr.at.Sub(pendingDown.at) <= flapWindow {
					c.add(event.EBGPFlap, pendingDown.at, tr.at, loc, pendingDown.attr)
				}
				pendingDown = nil
			} else {
				pendingDown = tr
			}
		}
	}
}

// pairPIM emits a PIM Neighbor Adjacency Change for every DOWN edge,
// closed by the next UP when one follows within the flap window.
func (c *Collector) pairPIM() {
	sort.SliceStable(c.pimDown, func(i, j int) bool { return c.pimDown[i].at.Before(c.pimDown[j].at) })
	for _, ups := range c.pimUp {
		sort.Slice(ups, func(i, j int) bool { return ups[i].Before(ups[j]) })
	}
	for _, down := range c.pimDown {
		end := down.at
		ups := c.pimUp[down.loc]
		for _, up := range ups {
			if !up.Before(down.at) && up.Sub(down.at) <= flapWindow {
				end = up
				break
			}
		}
		name := event.PIMAdjacencyChange
		if down.attr["uplink"] == "true" {
			name = event.PIMUplinkAdjacencyChange
		}
		c.add(name, down.at, end, down.loc, down.attr)
	}
}

// localTime resolves a device's syslog clock zone from its parsed
// configuration, caching time.LoadLocation lookups.
func (c *Collector) location(router string) *time.Location {
	r, ok := c.Topo.Routers[router]
	if !ok || r.TZName == "" {
		return time.UTC
	}
	if loc, ok := c.tzCache[r.TZName]; ok {
		return loc
	}
	loc, err := time.LoadLocation(r.TZName)
	if err != nil {
		loc = time.UTC
	}
	c.tzCache[r.TZName] = loc
	return loc
}
