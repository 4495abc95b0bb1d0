package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"grca/internal/browser"
	"grca/internal/collector"
	"grca/internal/conf"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/netmodel"
	"grca/internal/netstate"
	"grca/internal/obs"
	"grca/internal/realtime"
	"grca/internal/replica"
	"grca/internal/rollup"
	"grca/internal/server"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

// perLayer is every per-layer metric of a traced run, grouped by the
// package it measures. Timings are the median of at least 1000 calls
// unless the name carries a size (.1e5/.1e6 = store pre-filled to that
// many events) or the call is inherently one-shot. README.md says which
// end-to-end metric each should move.
var perLayer = []metricDef{
	// wire
	{name: "wire.encode.ns_per_event", unit: "ns"},
	{name: "wire.decode.ns_per_event", unit: "ns"},
	{name: "wire.bytes_per_event", unit: "bytes"},
	// collector
	{name: "collector.ingest.ns_per_line", unit: "ns"},
	{name: "collector.ingest.syslog.ns_per_line", unit: "ns"},
	{name: "collector.ingest.snmp.ns_per_line", unit: "ns"},
	{name: "collector.ingest.perfmon.ns_per_line", unit: "ns"},
	{name: "collector.ingest.keynote.ns_per_line", unit: "ns"},
	{name: "collector.ingest.bgpmon.ns_per_line", unit: "ns"},
	{name: "collector.ingest.ospfmon.ns_per_line", unit: "ns"},
	{name: "collector.finalize.ms", unit: "ms"},
	{name: "collector.events_per_line", unit: "ratio", higher: true},
	{name: "collector.fastpath.fallback_share", unit: "share"},
	// conf
	{name: "conf.parse.ms", unit: "ms"},
	// store
	{name: "store.put.ns_per_event", unit: "ns"},
	{name: "store.putall.ns_per_event", unit: "ns"},
	{name: "store.query.us.1e5", unit: "us"},
	{name: "store.query.us.1e6", unit: "us"},
	{name: "store.queryat.us.1e6", unit: "us"},
	{name: "store.evict.ns_per_event", unit: "ns"},
	{name: "store.snapshot.ns_per_event.1e6", unit: "ns"},
	{name: "store.heap_bytes_per_event", unit: "bytes"},
	{name: "store.evictions_per_add", unit: "ratio"},
	// wal
	{name: "wal.journal.append_sync.us", unit: "us"},
	{name: "wal.journal.sync.us", unit: "us"},
	{name: "wal.log.commit.us", unit: "us"},
	{name: "wal.snapshot.ms.1e5", unit: "ms"},
	{name: "wal.snapshot.ms.1e6", unit: "ms"},
	{name: "wal.open.ms.1e6", unit: "ms"},
	{name: "wal.journal.replay.ms.1e6", unit: "ms"},
	{name: "wal.disk_bytes_per_event", unit: "bytes"},
	{name: "wal.fsyncs_per_batch", unit: "ratio"},
	{name: "wal.commits.coalesced", unit: "count", higher: true},
	{name: "disk.fsync_probe.ms", unit: "ms"},
	// server
	{name: "server.handler.ingest.us_per_batch", unit: "us"},
	{name: "server.http.overhead.us", unit: "us"},
	{name: "server.open.empty.ms", unit: "ms"},
	{name: "server.reopen.ms.1e6", unit: "ms"},
	{name: "server.finalize.ms", unit: "ms"},
	{name: "server.pipeline.residual_share", unit: "share"},
	{name: "server.commit_group.batches_per_sync", unit: "ratio", higher: true},
	{name: "server.http.429", unit: "count"},
	// netstate / ospf / bgp
	{name: "netstate.newview.ms", unit: "ms"},
	{name: "netstate.expand.cold.us", unit: "us"},
	{name: "netstate.expand.warm.us", unit: "us"},
	{name: "ospf.spf.us", unit: "us"},
	{name: "bgp.bestpath.us", unit: "us"},
	{name: "netstate.expand.hit_ratio", unit: "ratio", higher: true},
	// temporal
	{name: "temporal.join.ns", unit: "ns"},
	// engine
	{name: "engine.diagnose.cold.p50_us.bgpflap", unit: "us"},
	{name: "engine.diagnose.cold.p50_us.cdn", unit: "us"},
	{name: "engine.diagnose.cold.p50_us.pim", unit: "us"},
	{name: "engine.diagnose.cold.p99_us.bgpflap", unit: "us"},
	{name: "engine.diagnose.cold.p99_us.cdn", unit: "us"},
	{name: "engine.diagnose.cold.p99_us.pim", unit: "us"},
	{name: "engine.diagnose.warm.us.bgpflap", unit: "us"},
	{name: "engine.diagnose.warm.us.cdn", unit: "us"},
	{name: "engine.diagnose.warm.us.pim", unit: "us"},
	{name: "engine.diagnose_all.ms.bgpflap", unit: "ms"},
	{name: "engine.diagnose_all.ms.cdn", unit: "ms"},
	{name: "engine.diagnose_all.ms.pim", unit: "ms"},
	{name: "engine.rules_evaluated_per_diagnosis", unit: "count"},
	{name: "engine.unknown_share", unit: "share"},
	{name: "engine.diagnose.residual_share.cdn", unit: "share"},
	// realtime
	{name: "realtime.observe.ns_per_event", unit: "ns"},
	{name: "realtime.observe.symptom.us", unit: "us"},
	{name: "realtime.late_share", unit: "share"},
	{name: "realtime.pending.peak", unit: "count"},
	// rollup / browser
	{name: "rollup.observe_event.ns", unit: "ns"},
	{name: "rollup.add_diagnosis.ns", unit: "ns"},
	{name: "rollup.breakdown.us", unit: "us"},
	{name: "rollup.trend.us", unit: "us"},
	{name: "browser.drilldown.us", unit: "us"},
	// replica
	{name: "replica.source.ship.ns_per_record", unit: "ns"},
	{name: "replica.sink.write.ns_per_record", unit: "ns"},
	{name: "replica.stream.bytes_per_event", unit: "bytes"},
	{name: "replica.follower.apply.events_per_s", unit: "1/s", higher: true},
	{name: "replica.lag.peak_bytes", unit: "bytes"},
	// generator
	{name: "loadgen.cpu_share", unit: "share"},
	{name: "loadgen.encode.ms", unit: "ms"},
	{name: "trace.overhead_share", unit: "share"},
}

// tracedScale is the traced run's share of the measured run's work.
const tracedScale = 0.1

// runTraced is one traced run: the workload at a tenth of its size, once
// without and once with client-side spans (their rate difference is the
// tracing overhead), then the in-process timing of every layer and the
// two shadow budgets. End-to-end metrics never come from here.
func runTraced(e *env, w workload, p params, trace string) (*result, error) {
	p.scale = tracedScale
	plain, err := runWorkload(e, w, p)
	if err != nil {
		return nil, err
	}
	e.tr = newTracer()
	r, err := runWorkload(e, w, p)
	tr := e.tr
	e.tr = nil
	if err != nil {
		return nil, err
	}
	r.layer["trace.overhead_share"] = 1 - r.values["ingest_events_per_s"]/plain.values["ingest_events_per_s"]

	e.printf("\n-- client-side spans of %s at 1/%d size: self time by span name\n", w.name, int(1/tracedScale))
	spans := tr.snapshot()
	printDurations(e.out, selfByName(spans), 14)

	ls := &layers{e: e, seed: p.seed, out: r.layer, dir: filepath.Join(e.runDir, "layers")}
	defer os.RemoveAll(ls.dir) //nolint:errcheck // best-effort scratch cleanup
	if err := ls.run(); err != nil {
		return nil, fmt.Errorf("layers: %v", err)
	}
	path := trace
	if trace == "1" {
		path = filepath.Join(e.root, "bench/.run", "spans-"+w.name+".json")
	}
	tr.spans = append(spans, ls.shadow.snapshot()...)
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	e.printf("\n%d spans written to %s\n", len(tr.spans), path)
	return r, nil
}

// printDurations prints the top entries of a name → duration table with
// each entry's share of the total.
func printDurations(w io.Writer, m map[string]time.Duration, top int) {
	type row struct {
		name string
		d    time.Duration
	}
	var rows []row
	var total time.Duration
	for name, d := range m {
		rows = append(rows, row{name, d})
		total += d
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		return rows[i].name < rows[j].name
	})
	for i, r := range rows {
		if i == top {
			break
		}
		fmt.Fprintf(w, "   %-40s %12.3f ms %5.1f%%\n", r.name, ms(r.d), 100*float64(r.d)/float64(max(total, 1)))
	}
}

// layers times the public functions of each internal package from this
// process: no server child, no socket unless the metric is the socket.
type layers struct {
	e    *env
	seed int64
	out  map[string]float64
	dir  string

	small *corpus
	rca   *corpus
	ref   *reference // corpus_rca through the pipeline
	ups   *upStream
	// shadow holds the spans of the two shadow budgets.
	shadow *tracer
}

func (ls *layers) run() error {
	if err := os.MkdirAll(ls.dir, 0o755); err != nil {
		return err
	}
	var err error
	if ls.small, err = buildCorpus(smallConfig(ls.seed), filepath.Join(ls.dir, "small")); err != nil {
		return err
	}
	if ls.rca, err = buildCorpus(rcaConfig(ls.seed), filepath.Join(ls.dir, "rca")); err != nil {
		return err
	}
	ls.ups = newUpStream(ls.small, ls.seed, ls.small.bundle.Start.Add(ls.small.bundle.Duration))
	ls.shadow = newTracer()
	steps := []struct {
		name string
		fn   func() error
	}{
		{"wire", ls.wire}, {"collector+conf", ls.collector}, {"netstate", ls.netstate},
		{"temporal+engine", ls.engine}, {"realtime+rollup", ls.realtime},
		{"store", ls.store}, {"wal+replica", ls.wal}, {"server", ls.server},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %v", s.name, err)
		}
		ls.e.printf("   layer suite: %-16s %6.1f s\n", s.name, time.Since(t0).Seconds())
	}
	return nil
}

// perCall times n calls of fn one by one and returns the median.
func perCall(n int, fn func(i int)) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn(i)
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func ns(d time.Duration) float64 { return float64(d) }

// ---------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------

func (ls *layers) wire() error {
	batch := ls.ups.batch(bulkBatch)
	var body []byte
	enc := perCall(1000, func(int) { body = wire.AppendEvents(body[:0], batch) })
	var derr error
	dec := perCall(1000, func(int) {
		if _, err := wire.Decode(body); err != nil {
			derr = err
		}
	})
	ls.out["wire.encode.ns_per_event"] = ns(enc) / bulkBatch
	ls.out["wire.decode.ns_per_event"] = ns(dec) / bulkBatch
	ls.out["wire.bytes_per_event"] = float64(len(body)) / bulkBatch
	return derr
}

// ---------------------------------------------------------------------
// collector, conf
// ---------------------------------------------------------------------

func (ls *layers) collector() error {
	c := ls.rca
	var topo *netmodel.Topology
	var perr error
	ls.out["conf.parse.ms"] = ms(perCall(5, func(int) {
		topo, perr = conf.Parse(c.bundle.Configs, c.bundle.Inventory)
	}))
	if perr != nil {
		return perr
	}
	// Three whole-corpus passes; the last one's state becomes the
	// reference the later layers diagnose over.
	fallback := obs.GetCounter("collector.fastpath.fallback")
	var total, finalize []float64
	bySource := map[string][]float64{}
	linesBy := map[string]int{}
	for pass := 0; pass < 3; pass++ {
		before := fallback.Value()
		st := store.New()
		coll := collector.New(topo, st, c.bundle.Start.Year())
		coll.WindowStart, coll.WindowEnd = c.bundle.Start, c.bundle.Start.Add(c.bundle.Duration)
		took := map[string]time.Duration{}
		var sum time.Duration
		for _, ch := range c.chunks {
			t0 := time.Now()
			if err := coll.Ingest(ch.source, strings.NewReader(ch.lines)); err != nil {
				return err
			}
			d := time.Since(t0)
			took[ch.source] += d
			sum += d
			if pass == 0 {
				linesBy[ch.source] += strings.Count(ch.lines, "\n")
			}
		}
		t0 := time.Now()
		if err := coll.Finalize(); err != nil {
			return err
		}
		finalize = append(finalize, ms(time.Since(t0)))
		total = append(total, ns(sum)/float64(c.lines))
		for src, d := range took {
			bySource[src] = append(bySource[src], ns(d)/float64(max(linesBy[src], 1)))
		}
		ls.out["collector.events_per_line"] = float64(st.Len()) / float64(c.lines)
		ls.out["collector.fastpath.fallback_share"] = float64(fallback.Value()-before) / float64(c.lines)
	}
	ls.out["collector.ingest.ns_per_line"] = median(total)
	ls.out["collector.finalize.ms"] = median(finalize)
	for _, src := range []string{collector.SourceSyslog, collector.SourceSNMP, collector.SourcePerfMon,
		collector.SourceKeynote, collector.SourceBGPMon, collector.SourceOSPFMon} {
		ls.out["collector.ingest."+src+".ns_per_line"] = median(bySource[src])
	}
	return nil
}

// ---------------------------------------------------------------------
// netstate, ospf, bgp
// ---------------------------------------------------------------------

// expandCall is one spatial expansion an engine would ask for.
type expandCall struct {
	loc   locus.Location
	level locus.Type
	at    time.Time
}

func (ls *layers) netstate() error {
	// A fresh pipeline state, so that the first pass over it is cold: no
	// SPF tree, no best-path decision has been computed yet.
	ref, err := buildReference(ls.rca)
	if err != nil {
		return err
	}
	ls.ref = ref
	ls.out["netstate.newview.ms"] = ms(perCall(5, func(int) {
		netstate.NewView(ref.topo, ref.coll.OSPF, ref.coll.BGP)
	}))

	// SPF: one Dijkstra per distinct source router in the opening epoch.
	var routers []string
	for name, r := range ref.topo.Routers {
		if r.Role != netmodel.RoleCustomer {
			routers = append(routers, name)
		}
	}
	sort.Strings(routers)
	at := ls.rca.bundle.Start.Add(time.Hour)
	ls.out["ospf.spf.us"] = us(perCall(len(routers), func(i int) {
		ref.coll.OSPF.Distance(routers[i], routers[(i+1)%len(routers)], at)
	}))

	// Best path: one decision per (ingress, agent prefix) in that epoch.
	type ask struct {
		ingress string
		agent   string
	}
	var asks []ask
	for _, ingress := range routers {
		for _, agent := range ls.rca.ds.Agents {
			asks = append(asks, ask{ingress, agent})
		}
	}
	rng := rand.New(rand.NewSource(ls.seed))
	rng.Shuffle(len(asks), func(i, j int) { asks[i], asks[j] = asks[j], asks[i] })
	asks = asks[:min(len(asks), 2000)]
	ls.out["bgp.bestpath.us"] = us(perCall(len(asks), func(i int) {
		ref.view.EgressFor(asks[i].ingress, asks[i].agent, at) //nolint:errcheck // unroutable pairs cost the same decision
	}))

	// Expansions: what the CDN engine asks for every root symptom — its
	// server:client location at each rule's join level at its start time,
	// the routing-dependent conversions. Cold is the first pass (paths
	// and egresses not yet memoized for that epoch), warm the second over
	// the same calls.
	var calls []expandCall
	seen := map[expandCall]bool{}
	cdnApp := apps[1]
	for _, sym := range ref.st.All(cdnApp.root) {
		for _, rule := range cdnApp.graph.RulesFor(cdnApp.root) {
			c := expandCall{sym.Loc, rule.JoinLevel, sym.Start}
			if !seen[c] {
				seen[c] = true
				calls = append(calls, c)
			}
		}
	}
	expand := func(i int) { ref.view.Expand(calls[i].loc, calls[i].level, calls[i].at) } //nolint:errcheck // infeasible joins are part of the mix
	ls.out["netstate.expand.cold.us"] = us(perCall(len(calls), expand))
	ls.out["netstate.expand.warm.us"] = us(perCall(len(calls), expand))
	return nil
}

// ---------------------------------------------------------------------
// temporal, engine
// ---------------------------------------------------------------------

func (ls *layers) engine() error {
	ref := ls.ref
	// temporal.Joined is nanoseconds; time it a thousand calls at a time.
	var cdnSpec appSpec
	for _, a := range apps {
		if a.name == "cdn" {
			cdnSpec = a
		}
	}
	rule := cdnSpec.graph.RulesFor(cdnSpec.root)[0].Temporal
	t0 := ls.rca.bundle.Start
	joined := 0
	ls.out["temporal.join.ns"] = ns(perCall(1000, func(i int) {
		for k := 0; k < 1000; k++ {
			d := t0.Add(time.Duration(k) * time.Second)
			if rule.Joined(t0, t0.Add(time.Minute), d, d.Add(time.Minute)) {
				joined++
			}
		}
	})) / 1000

	for _, a := range apps {
		if a.study == "" {
			continue
		}
		syms := ref.st.All(a.root)
		if len(syms) == 0 {
			return fmt.Errorf("%s: no symptoms in corpus_rca", a.name)
		}
		// diagnose_all on a fresh engine: cold cache filling as it goes.
		eng, err := a.newEngine(ref.st, ref.view)
		if err != nil {
			return err
		}
		start := time.Now()
		eng.DiagnoseAll()
		ls.out["engine.diagnose_all.ms."+a.name] = ms(time.Since(start))
		// warm: that engine again, every expansion now cached.
		ls.out["engine.diagnose.warm.us."+a.name] = us(perCall(max(1000, len(syms)), func(i int) {
			eng.Diagnose(syms[i%len(syms)])
		}))
		// cold: a new engine — an empty spatial cache — per diagnosis.
		cold := make(latencies, 0, max(1000, len(syms)))
		for i := 0; i < cap(cold); i++ {
			fresh, err := a.newEngine(ref.st, ref.view)
			if err != nil {
				return err
			}
			began := time.Now()
			fresh.Diagnose(syms[i%len(syms)])
			cold = append(cold, us(time.Since(began)))
		}
		sort.Float64s(cold)
		ls.out["engine.diagnose.cold.p50_us."+a.name], _ = percentile(cold, 500)
		ls.out["engine.diagnose.cold.p99_us."+a.name], _ = percentile(cold, 990)
	}
	return ls.shadowDiagnosis(cdnSpec)
}

// shadowDiagnosis is the budget of one cold CDN diagnosis: each symptom
// is diagnosed on a fresh tracing engine, the engine's own span tree is
// folded into stages (store query, spatial expansion, temporal+spatial
// join, reasoning), and whatever the stages do not cover — recursion,
// tree building, span bookkeeping — is the residual.
func (ls *layers) shadowDiagnosis(a appSpec) error {
	syms := ls.ref.st.All(a.root)
	stages := map[string][]float64{}
	perRule := map[string]time.Duration{}
	var totals []float64
	for i, sym := range syms {
		eng, err := a.newEngine(ls.ref.st, ls.ref.view)
		if err != nil {
			return err
		}
		eng.Tracing = true
		d := eng.Diagnose(sym)
		root := d.Trace.Root()
		if root == nil {
			return fmt.Errorf("engine returned no trace")
		}
		one := map[string]time.Duration{}
		foldTrace(ls.shadow, root, 0, i+1, one, perRule)
		for stage, took := range one {
			stages[stage] = append(stages[stage], us(took))
		}
		totals = append(totals, us(root.Duration))
	}
	total := median(totals)
	ls.e.printf("\n-- where one cold CDN diagnosis goes (traced median %.1f µs over %d symptoms; untraced cold p50 %.1f µs)\n",
		total, len(syms), ls.out["engine.diagnose.cold.p50_us.cdn"])
	covered := 0.0
	for _, stage := range []string{"store.query", "netstate.expand", "temporal+spatial join", "engine.reason"} {
		m := median(stages[stage])
		covered += m
		ls.e.printf("   %-40s %12.1f µs %5.1f%%\n", stage, m, 100*m/total)
	}
	ls.out["engine.diagnose.residual_share.cdn"] = 1 - covered/total
	ls.e.printf("   %-40s %12.1f µs %5.1f%%\n", "residual (recursion, tree, spans)", total-covered, 100*(1-covered/total))
	ls.e.printf("\n-- per-rule self time over those diagnoses (Engine.Tracing)\n")
	printDurations(ls.e.out, perRule, 12)
	return nil
}

// foldTrace copies an engine span tree into the shadow tracer and sums
// the stage timings the engine annotated on its rule spans.
func foldTrace(tr *tracer, sp *obs.Span, parent, req int, stages, perRule map[string]time.Duration) {
	id := tr.add(sp.Name, parent, req, sp.Start, sp.Duration)
	self := sp.Duration
	for _, c := range sp.Children {
		self -= c.Duration
		foldTrace(tr, c, id, req, stages, perRule)
	}
	if sp.Name == "reason" {
		stages["engine.reason"] += sp.Duration
	}
	if rule, ok := strings.CutPrefix(sp.Name, "rule "); ok {
		perRule[rule] += self
		for _, at := range sp.Attrs {
			d, err := time.ParseDuration(at.Value)
			if err != nil {
				continue
			}
			switch at.Key {
			case "query":
				stages["store.query"] += d
			case "expand":
				stages["netstate.expand"] += d
			case "join":
				stages["temporal+spatial join"] += d
			}
		}
	}
}

// ---------------------------------------------------------------------
// realtime, rollup, browser
// ---------------------------------------------------------------------

func (ls *layers) realtime() error {
	ref := ls.ref
	base := ref.normalized()
	replayed := shifted(base, 1, replayPeriod(base, ls.rca.bundle.Duration))
	procs := make([]*realtime.Processor, len(apps))
	roll := rollup.New(rollup.Config{})
	for i, a := range apps {
		procs[i] = realtime.NewOnStore(ref.st, ref.view, a.graph, realtime.GraceFor(a.graph, maxEventDuration))
	}
	var plain, symptom latencies
	var diagnoses []engine.Diagnosis
	for _, in := range replayed {
		stored := ref.st.Add(in)
		for i, a := range apps {
			t0 := time.Now()
			ds, _ := procs[i].ObserveStored(stored)
			took := time.Since(t0)
			// A symptom costs nothing when observed; it is paid for by
			// the later event whose time lets its grace period run out.
			if len(ds) > 0 {
				symptom = append(symptom, us(took)/float64(len(ds)))
			} else {
				plain = append(plain, ns(took))
			}
			if a.name == "cdn" {
				diagnoses = append(diagnoses, ds...)
			}
		}
	}
	ls.out["realtime.observe.ns_per_event"] = median(plain)
	ls.out["realtime.observe.symptom.us"] = median(symptom)
	if len(diagnoses) == 0 {
		return fmt.Errorf("the replay produced no streaming CDN diagnosis")
	}

	stored := make([]*event.Instance, 0, bulkBatch)
	scratch := store.New()
	for _, in := range ls.ups.batch(bulkBatch) {
		stored = append(stored, scratch.Add(in))
	}
	ls.out["rollup.observe_event.ns"] = ns(perCall(1000, func(int) {
		for _, in := range stored {
			roll.ObserveEvent(in)
		}
	})) / bulkBatch
	ls.out["rollup.add_diagnosis.ns"] = ns(perCall(max(1000, len(diagnoses)), func(i int) {
		roll.AddDiagnosis("cdn", diagnoses[i%len(diagnoses)])
	}))
	ls.out["rollup.breakdown.us"] = us(perCall(1000, func(int) { roll.BreakdownCounts("cdn", time.Time{}, nil) }))
	first, last, _ := ref.st.Span()
	from := first.Truncate(time.Hour)
	seeded := rollup.New(rollup.Config{})
	seeded.SeedEvents(ref.st)
	ls.out["rollup.trend.us"] = us(perCall(1000, func(int) { seeded.Trend(apps[1].root, from, last, time.Hour) }))
	syms := ref.st.All(apps[1].root)
	var derr error
	ls.out["browser.drilldown.us"] = us(perCall(max(1000, len(syms)), func(i int) {
		if _, err := browser.DrillDown(ref.st, ref.view, syms[i%len(syms)], 15*time.Minute, locus.Router); err != nil {
			derr = err
		}
	}))
	return derr
}

// ---------------------------------------------------------------------
// store
// ---------------------------------------------------------------------

const million = 1_000_000

func (ls *layers) store() error {
	// Per-event Put is what the server's applier calls; PutAll is the
	// batch form. Both fill a store to 1e6 a thousand events at a time.
	ups := newUpStream(ls.small, ls.seed, ls.ups.start)
	var batches [][]event.Instance
	for id := 0; id < million; {
		b := ups.batch(bulkBatch)
		for i := range b {
			b[i].ID = id
			id++
		}
		batches = append(batches, b)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := store.New()
	var perr error
	query := func(st *store.Memory, n int) time.Duration {
		rng := rand.New(rand.NewSource(ls.seed))
		return perCall(1000, func(int) {
			from := ups.start.Add(time.Duration(rng.Intn(n-200)) * time.Millisecond)
			st.Query(event.InterfaceUp, from, from.Add(100*time.Millisecond))
		})
	}
	put := perCall(len(batches), func(i int) {
		for _, in := range batches[i] {
			if _, err := st.Put(in); err != nil {
				perr = err
			}
		}
		if i+1 == 100 {
			ls.out["store.query.us.1e5"] = us(query(st, 100_000))
		}
	})
	if perr != nil {
		return perr
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	ls.out["store.put.ns_per_event"] = ns(put) / bulkBatch
	ls.out["store.heap_bytes_per_event"] = float64(after.HeapAlloc-before.HeapAlloc) / million
	ls.out["store.query.us.1e6"] = us(query(st, million))
	rng := rand.New(rand.NewSource(ls.seed))
	ls.out["store.queryat.us.1e6"] = us(perCall(1000, func(int) {
		from := ups.start.Add(time.Duration(rng.Intn(million-2000)) * time.Millisecond)
		st.QueryAt(event.InterfaceUp, from, from.Add(time.Second), ups.locs[rng.Intn(len(ups.locs))])
	}))
	began := time.Now()
	err := st.SnapshotTo(func(int, int, int) error { return nil }, func(*event.Instance) error { return nil })
	ls.out["store.snapshot.ns_per_event.1e6"] = ns(time.Since(began)) / million
	if err != nil {
		return err
	}
	began = time.Now()
	evicted := st.EvictBefore(ups.start.Add(million / 4 * time.Millisecond))
	ls.out["store.evict.ns_per_event"] = ns(time.Since(began)) / float64(max(evicted, 1))

	all := store.New()
	ls.out["store.putall.ns_per_event"] = ns(perCall(len(batches), func(i int) {
		if err := all.PutAll(batches[i]); err != nil {
			perr = err
		}
	})) / bulkBatch
	return perr
}

// ---------------------------------------------------------------------
// wal, replica
// ---------------------------------------------------------------------

func (ls *layers) wal() error {
	ups := newUpStream(ls.small, ls.seed, ls.ups.start)
	// The bare device: write + fdatasync of one batch-sized buffer, to
	// tell machine drift from code when the journal numbers move.
	payload := wire.AppendEvents(nil, ups.batch(bulkBatch))
	probe, err := os.OpenFile(filepath.Join(ls.dir, "fsync.probe"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var perr error
	ls.out["disk.fsync_probe.ms"] = ms(perCall(300, func(int) {
		if _, err := probe.Write(payload); err != nil {
			perr = err
		}
		if err := probe.Sync(); err != nil {
			perr = err
		}
	}))
	probe.Close() //nolint:errcheck // scratch file
	if perr != nil {
		return perr
	}

	// Journal: 1000 batch-sized records = the journal of 1e6 events.
	jpath := filepath.Join(ls.dir, "journal.log")
	jour, err := wal.OpenJournal(jpath)
	if err != nil {
		return err
	}
	syncs := make([]float64, 0, 1000)
	ls.out["wal.journal.append_sync.us"] = us(perCall(1000, func(int) {
		if err := jour.AppendNoSync(payload); err != nil {
			perr = err
		}
		t0 := time.Now()
		if err := jour.Sync(); err != nil {
			perr = err
		}
		syncs = append(syncs, us(time.Since(t0)))
	}))
	ls.out["wal.journal.sync.us"] = median(syncs)
	if err := jour.Close(); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	records := 0
	began := time.Now()
	if _, err := wal.ReplayJournal(jpath, func([]byte) error { records++; return nil }); err != nil {
		return err
	}
	ls.out["wal.journal.replay.ms.1e6"] = ms(time.Since(began))
	if records != 1000 {
		return fmt.Errorf("journal replayed %d records, wrote 1000", records)
	}

	// Event WAL: 1000 commit groups of 1000 puts. Snapshots are explicit
	// here (at 1e5 and 1e6) so a commit's time is the commit's alone.
	wdir := filepath.Join(ls.dir, "wal")
	log, st, _, err := wal.Open(wdir, wal.Options{})
	if err != nil {
		return err
	}
	commits := make([]float64, 0, 1000)
	for g := 0; g < 1000; g++ {
		for _, in := range ups.batch(bulkBatch) {
			st.Add(in)
		}
		t0 := time.Now()
		if err := log.Commit(); err != nil {
			return err
		}
		commits = append(commits, us(time.Since(t0)))
		if g+1 == 100 {
			size, err := dirBytes(wal.WALDirOf(wdir))
			if err != nil {
				return err
			}
			ls.out["wal.disk_bytes_per_event"] = float64(size) / 100_000
			if err := ls.replica(wdir); err != nil {
				return fmt.Errorf("replica: %v", err)
			}
			t0 := time.Now()
			if err := log.Snapshot(); err != nil {
				return err
			}
			ls.out["wal.snapshot.ms.1e5"] = ms(time.Since(t0))
		}
	}
	ls.out["wal.log.commit.us"] = median(commits)
	began = time.Now()
	if err := log.Snapshot(); err != nil {
		return err
	}
	ls.out["wal.snapshot.ms.1e6"] = ms(time.Since(began))
	if err := log.Close(); err != nil {
		return err
	}
	began = time.Now()
	log, st, _, err = wal.Open(wdir, wal.Options{})
	if err != nil {
		return err
	}
	ls.out["wal.open.ms.1e6"] = ms(time.Since(began))
	if st.Len() != million {
		return fmt.Errorf("WAL recovered %d events, wrote %d", st.Len(), million)
	}
	return log.Close()
}

// replica ships the 1e5-record WAL under dir the way a primary does and
// writes the stream into a follower's sink.
func (ls *layers) replica(dir string) error {
	var stream bytes.Buffer
	began := time.Now()
	next, err := replica.ShipWALOnce(dir, "bench", 0, &stream)
	if err != nil {
		return err
	}
	shipped := time.Since(began)
	if next < 100_000 {
		return fmt.Errorf("shipped up to record %d of 100000", next)
	}
	ls.out["replica.source.ship.ns_per_record"] = ns(shipped) / float64(next)
	ls.out["replica.stream.bytes_per_event"] = float64(stream.Len()) / float64(next)

	var recs [][]byte
	rd := replica.NewReader(wal.NewFrameReader(&stream))
	for {
		m, err := rd.Next()
		if err == io.EOF || m.Type == replica.MsgEOF {
			break
		}
		if err != nil {
			return err
		}
		if m.Type == replica.MsgWALRec {
			recs = append(recs, append([]byte(nil), m.Rec...))
		}
	}
	sink, err := replica.OpenWALSink(filepath.Join(ls.dir, "sink"), 0)
	if err != nil {
		return err
	}
	var werr error
	per := perCall(len(recs)/bulkBatch, func(i int) {
		for _, rec := range recs[i*bulkBatch : (i+1)*bulkBatch] {
			if err := sink.WriteRecord(rec); err != nil {
				werr = err
			}
		}
	})
	ls.out["replica.sink.write.ns_per_record"] = ns(per) / bulkBatch
	if err := sink.Close(); err != nil {
		return err
	}
	return werr
}

// ---------------------------------------------------------------------
// server
// ---------------------------------------------------------------------

// post sends one request straight into a handler, no socket.
func post(h http.Handler, path, ctype string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

func (ls *layers) server() error {
	cfg := server.Config{
		DataDir: filepath.Join(ls.dir, "server-data"), Bundle: ls.small.bundle,
		Shards: 1, Fsync: wal.FsyncBatch, SnapshotEvery: 50000,
	}
	cfg.Bundle.Feeds = nil
	began := time.Now()
	s, err := server.Open(cfg)
	if err != nil {
		return err
	}
	ls.out["server.open.empty.ms"] = ms(time.Since(began))
	h := s.Handler()
	for _, ch := range ls.small.chunks {
		if rec, _ := post(h, "/v1/ingest", wire.ContentType, ch.body); rec.Code != http.StatusOK {
			return fmt.Errorf("feed %s: status %d: %s", ch.source, rec.Code, rec.Body)
		}
	}
	rec, took := post(h, "/v1/finalize", "application/json", []byte("{}"))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("finalize: status %d: %s", rec.Code, rec.Body)
	}
	ls.out["server.finalize.ms"] = ms(took)

	// 1000 batches: even ones straight into the handler, odd ones through
	// a loopback socket to the same handler. The two medians see the same
	// growing store; their difference is what the socket and net/http add.
	ts := httptest.NewServer(h)
	defer ts.Close()
	ups := newUpStream(ls.small, ls.seed, ls.ups.start)
	var direct, socket []float64
	for i := 0; i < 1000; i++ {
		body := wire.AppendEvents(nil, ups.batch(bulkBatch))
		if i%2 == 0 {
			rec, took := post(h, "/v1/ingest", wire.ContentType, body)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ingest: status %d: %s", rec.Code, rec.Body)
			}
			direct = append(direct, us(took))
			continue
		}
		t0 := time.Now()
		status, reply, _, err := ls.e.do(http.MethodPost, ts.URL+"/v1/ingest", wire.ContentType, body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("ingest over loopback: status %d: %s: %v", status, reply, err)
		}
		socket = append(socket, us(time.Since(t0)))
	}
	handler := median(direct)
	ls.out["server.handler.ingest.us_per_batch"] = handler
	ls.out["server.http.overhead.us"] = median(socket) - handler

	if err := ls.shadowBatch(handler); err != nil {
		return fmt.Errorf("shadow batch: %v", err)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return err
	}
	began = time.Now()
	s, err = server.Open(cfg)
	if err != nil {
		return err
	}
	ls.out["server.reopen.ms.1e6"] = ms(time.Since(began))
	if got := s.Recovery().Events; got < million {
		return fmt.Errorf("reopen recovered %d events, ingested over %d", got, million)
	}
	return s.Shutdown(ctx)
}
