package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/server"
	"grca/internal/wal"
)

// params size one workload run.
type params struct {
	seed    int64
	seconds int
	// scale shrinks the fixed-work sizes: 1 for the measured run, 0.1 for
	// the traced run, 1/200 for the smoke test.
	scale float64
}

const (
	bulkBatch   = 1000 // events per ingest_bulk / ingest_retained / replicated request
	replayBatch = 200  // events per rca_stream request
	// The streams are fixed work, so that store size, disk bytes and
	// restart length are the same on every commit; each scales with
	// -seconds at a rate near what the seed commit sustains on the box
	// this was written on, so the windows there add up to about -seconds.
	//
	// bulkRate sizes one window of ingest_bulk and replicated (events per
	// second of -seconds); ingest_bulk runs bulkWindows of them.
	bulkRate    = 75_000
	bulkWindows = 3
	// retainedEvents is what the retention window of ingest_retained
	// holds; events are 1 ms apart, so the window is 200 s of event time.
	retainedEvents = 200_000
	// retainedRate sizes ingest_retained's stream (events per second of
	// -seconds), which goes out as `segments` equal slices, each one
	// observation of the rate.
	retainedRate = 210_000
	segments     = 6
	// replaysPerSecond sizes rca_stream: corpus replays per second of
	// -seconds.
	replaysPerSecond = 1.2
)

// restarts is how many times a workload kills and restarts its server
// (ingest_bulk: once per window); restart_s is the shortest. The
// shrunken runs, which report no end-to-end metric, restart once.
func (p params) restarts() int {
	if p.scale < 1 {
		return 1
	}
	return 3
}

// A workload is one traffic mix: how its inputs are built (timed as
// set-up) and what it drives and measures.
type workload struct {
	name, why string
	setup     func(e *env, p params, dir string) (*inputs, error)
	run       func(e *env, p params, in *inputs, r *result) error
}

var workloads = []workload{
	{"ingest_bulk",
		"Write path alone: a fixed in-order stream into a store growing from empty, no retention, then SIGKILL and restart; wire, dispatch, journal, WAL, snapshot and store put carry the run.",
		setupBulk, runIngestBulk},
	{"ingest_retained",
		"The same stream under -retention, so eviction, snapshot and segment compaction run beside put and append, as on a long-lived deployment.",
		setupRetained, runIngestRetained},
	{"rca_stream",
		"The paper's whole loop: feeds collected and finalized, then replays diagnosed on the ingest path beside a browsing, diagnosing reader; collector, netstate, engine, realtime and rollup carry the run.",
		setupRCA, runRCAStream},
	{"replicated",
		"ingest_bulk's stream with one follower attached from the first batch, then catch-up, follower reads, SIGKILL of the primary and promotion: the price of a replica, three processes on two cores.",
		setupBulk, runReplicated},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// inputs is everything a workload sends, built before the timed window.
type inputs struct {
	corpus  *corpus
	fill    [][]byte      // ingest_retained: untimed stream that fills the window
	stream  [][]byte      // pre-encoded ingest bodies of the timed window
	perBody int           // events per body (the last may be short)
	events  int           // events in stream
	encode  time.Duration // time spent encoding stream
	ups     *upStream     // the interface-up generator, positioned after stream
}

// segment returns the i-th of `segments` equal slices of the stream as
// inputs of its own.
func (in *inputs) segment(i int) *inputs {
	per := len(in.stream) / segments
	part := *in
	part.stream = in.stream[i*per : (i+1)*per]
	part.events = in.events / segments
	return &part
}

// scaled returns base*seconds*scale rounded up to a whole number of
// batches (at least one).
func scaled(base float64, p params, batch int) int {
	n := int(base * float64(p.seconds) * p.scale)
	n = (n + batch - 1) / batch * batch
	return max(n, batch)
}

// setupBulk builds corpus_small and the fixed interface-up stream of
// ingest_bulk and replicated.
func setupBulk(e *env, p params, dir string) (*inputs, error) {
	c, err := buildCorpus(smallConfig(p.seed), dir)
	if err != nil {
		return nil, err
	}
	in := &inputs{corpus: c, perBody: bulkBatch, events: scaled(bulkRate, p, bulkBatch)}
	in.ups = newUpStream(c, p.seed, c.bundle.Start.Add(c.bundle.Duration))
	in.stream, in.encode = in.ups.encode(in.events, bulkBatch)
	return in, nil
}

// retention is ingest_retained's -retention: the event-time span of
// retainedEvents stream events. It does not shrink with the run's scale:
// while the 2-day corpus loads, the store sweeps (and the WAL snapshots)
// once per stored event, the more often the shorter the window, and a
// scaled-down window would make the load phase the smoke test's longest.
const retention = retainedEvents * time.Millisecond

// setupRetained builds corpus_small, the untimed stream that fills the
// retention window, and the timed stream that follows it.
func setupRetained(e *env, p params, dir string) (*inputs, error) {
	c, err := buildCorpus(smallConfig(p.seed), dir)
	if err != nil {
		return nil, err
	}
	in := &inputs{corpus: c, perBody: bulkBatch, events: scaled(retainedRate, p, segments*bulkBatch)}
	in.ups = newUpStream(c, p.seed, c.bundle.Start.Add(c.bundle.Duration))
	in.fill, _ = in.ups.encode(retainedEvents, bulkBatch)
	in.stream, in.encode = in.ups.encode(in.events, bulkBatch)
	return in, nil
}

// ---------------------------------------------------------------------
// Shared phases
// ---------------------------------------------------------------------

// loadAndFinalize posts the corpus's feed chunks in order from one
// client, then finalizes; it returns both phase durations.
func loadAndFinalize(e *env, r *result, n *node, c *corpus) (load, finalize time.Duration, err error) {
	load, err = e.inPhase("load", func() error {
		for _, ch := range c.chunks {
			if _, _, err := e.ingest(&r.ops, "feed."+ch.source, n.base, ch.body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	finalize, err = e.inPhase("finalize", func() error {
		_, _, err := e.call(&r.ops, "finalize", http.MethodPost, n.base+"/v1/finalize", "application/json", []byte("{}"))
		return err
	})
	return load, finalize, err
}

// streamed is what one closed-loop write window observed.
type streamed struct {
	lat     latencies
	bodies  int             // bodies acknowledged
	elapsed time.Duration   // window start → last acknowledgement
	cpu     time.Duration   // CPU the generator process burned during the window
	ackAt   []time.Duration // per body: when its answer arrived, from window start (0 = unsent)
	replies [][]byte        // response bodies, in body order (keep only)
}

// stream sends bodies from `clients` closed-loop clients: each takes the
// next unsent body, waits for its answer (retrying 429s), and goes on
// until the bodies run out. With keep, response bodies are retained
// unparsed so decoding them costs the generator no CPU inside the window.
func stream(e *env, o *ops, name, base string, bodies [][]byte, clients int, keep bool) (streamed, error) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		out     streamed
		lastAck time.Time
		firstEr error
		wg      sync.WaitGroup
	)
	out.ackAt = make([]time.Duration, len(bodies))
	if keep {
		out.replies = make([][]byte, len(bodies))
	}
	began, cpu0 := time.Now(), selfCPU()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat latencies
			acked := 0
			var last time.Time
			var err error
			for err == nil {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					break
				}
				var reply []byte
				var took time.Duration
				if reply, took, err = e.ingest(o, name, base, bodies[i]); err == nil {
					lat.add(took)
					acked++
					last = time.Now()
					out.ackAt[i] = last.Sub(began)
					if keep {
						out.replies[i] = reply
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.lat = append(out.lat, lat...)
			out.bodies += acked
			if last.After(lastAck) {
				lastAck = last
			}
			if err != nil && firstEr == nil {
				firstEr = err
			}
		}()
	}
	wg.Wait()
	out.cpu = selfCPU() - cpu0
	if out.bodies > 0 {
		out.elapsed = lastAck.Sub(began)
	}
	return out, firstEr
}

// ackedEvents is how many events the first n bodies of in.stream carry.
func (in *inputs) ackedEvents(n int) int {
	if n >= len(in.stream) {
		return in.events
	}
	return n * in.perBody
}

// windowMetrics records one write window: its rate as an observation
// (the run reports the best of its windows), its latencies pooled into
// lat, and the generator's own cost.
func windowMetrics(r *result, in *inputs, s streamed, lat *latencies) {
	events := in.ackedEvents(s.bodies)
	r.observe("ingest_events_per_s", float64(events)/s.elapsed.Seconds())
	*lat = append(*lat, s.lat...)
	r.diag["ingest_window_s"] += s.elapsed.Seconds()
	r.layer["loadgen.cpu_share"] = s.cpu.Seconds() / (s.elapsed.Seconds() * float64(runtime.NumCPU()))
	r.layer["loadgen.encode.ms"] = ms(in.encode)
	// The rate into a still-small store, to set the whole-window rate
	// against: snapshot cost grows with the store.
	if head := 100_000 / in.perBody; s.bodies > head {
		var done time.Duration
		for _, at := range s.ackAt[:head] {
			done = max(done, at)
		}
		r.diag["ingest_first_100k_events_per_s"] = float64(head*in.perBody) / done.Seconds()
	}
}

// latencyMetrics reports the pooled per-batch latencies of a run's
// windows.
func latencyMetrics(r *result, lat latencies) {
	p50, p99 := lat.quantiles()
	r.setOpt("ingest_p50_ms", p50, len(lat))
	r.setOpt("ingest_p99_ms", p99, len(lat))
}

// breakdowns fetches /v1/breakdown for every application, concatenated:
// the byte-identity witness across restart, replica and promotion.
func breakdowns(e *env, base string) ([]byte, error) {
	var all []byte
	for _, a := range apps {
		body, err := e.get(base + "/v1/breakdown?app=" + a.name)
		if err != nil {
			return nil, err
		}
		all = append(all, body...)
	}
	return all, nil
}

// restart SIGKILLs the node, starts it again on the same port and data
// directory, and times until /healthz reports phase serving.
func restart(e *env, n *node) (time.Duration, error) {
	return e.inPhase("restart", func() error {
		n.kill(&e.procs)
		if err := e.launch(n); err != nil {
			return err
		}
		return e.waitPhase(n, "serving", 120*time.Second)
	})
}

// endOfRun records what every workload reads off the serving process
// before killing it (peak RSS, pipeline counters), then SIGKILLs and
// restarts it the given number of times, checking each time that exactly
// the acknowledged state came back. wantEvents < 0 skips the acknowledged
// count (a retained store forgets) and holds the restart to the count
// before the kill.
func endOfRun(e *env, r *result, n *node, wantEvents, restarts int) error {
	st, err := e.stats(n.base)
	if err != nil {
		return err
	}
	pipelineCounters(r, st)
	if err := writeAmplification(r, n, st); err != nil {
		return err
	}
	before, err := breakdowns(e, n.base)
	if err != nil {
		return err
	}
	ev, err := e.events(n.base)
	if err != nil {
		return err
	}
	if wantEvents < 0 {
		wantEvents = ev.Events
	} else {
		r.check("events stored = events acknowledged", ev.Events == wantEvents,
			"%d stored, %d acknowledged", ev.Events, wantEvents)
	}
	n.readRSS()
	r.observe("server_rss_mb", n.peakRSS)
	for i := 0; i < restarts; i++ {
		took, err := restart(e, n)
		if err != nil {
			return err
		}
		r.observe("restart_s", took.Seconds())
		ev, err := e.events(n.base)
		if err != nil {
			return err
		}
		r.check("events after restart = events before SIGKILL", ev.Events == wantEvents,
			"%d after restart, %d before", ev.Events, wantEvents)
		after, err := breakdowns(e, n.base)
		if err != nil {
			return err
		}
		r.check("/v1/breakdown bytes identical across SIGKILL and restart", bytes.Equal(before, after),
			"%d bytes before, %d after", len(before), len(after))
	}
	n.kill(&e.procs)
	return nil
}

// writeAmplification records the bytes the serving process sent to
// storage per event it ever stored: journal, WAL and every snapshot
// rewrite. Unlike the time it takes, it repeats from run to run.
func writeAmplification(r *result, n *node, st statsDoc) error {
	written, err := n.writtenBytes()
	if err != nil {
		return err
	}
	r.observe("disk_write_bytes_per_event", written/max(st.Metrics.Counters["store.adds"], 1))
	return nil
}

// pipelineCounters copies the /v1/stats counters that say how the write
// path batched its work into the diagnostics (and the traced run's
// per-layer metrics).
func pipelineCounters(r *result, st statsDoc) {
	c, g := st.Metrics.Counters, st.Metrics.Gauges
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	r.layer["server.commit_group.batches_per_sync"] = ratio(c["server.ingest.batches"], c["wal.fsyncs"])
	r.layer["server.http.429"] = c["server.http.429"]
	r.layer["wal.commits.coalesced"] = c["wal.commits.coalesced"]
	r.layer["store.evictions_per_add"] = ratio(c["store.evictions"], c["store.adds"])
	r.layer["wal.fsyncs_per_batch"] = ratio(c["wal.fsyncs"], c["server.ingest.batches"])
	r.layer["realtime.late_share"] = ratio(c["realtime.late"], c["realtime.observed"])
	r.layer["realtime.pending.peak"] = g["realtime.pending.peak"]
	r.layer["netstate.expand.hit_ratio"] = ratio(c["engine.expand.cache.hits"],
		c["engine.expand.cache.hits"]+c["engine.expand.cache.misses"])
	r.layer["engine.rules_evaluated_per_diagnosis"] = ratio(c["engine.rules.evaluated"], c["engine.diagnoses"])
	r.layer["engine.unknown_share"] = ratio(c["engine.unknown"], c["engine.diagnoses"])
}

// failedShare closes the run's operation count.
func failedShare(r *result) {
	a, f, _ := r.ops.counts()
	r.set("failed_share", float64(f)/float64(max(a, 1)), a)
}

// ---------------------------------------------------------------------
// ingest_bulk
// ---------------------------------------------------------------------

func runIngestBulk(e *env, p params, in *inputs, r *result) error {
	// The same fixed stream into a fresh server bulkWindows times, so that
	// one slow spell of a shared disk does not decide the run.
	var lat latencies
	for w := 0; w < bulkWindows; w++ {
		n, err := e.startNode(fmt.Sprintf("bulk%d", w), in.corpus.dir)
		if err != nil {
			return err
		}
		if err := e.waitPhase(n, "loading", 30*time.Second); err != nil {
			return err
		}
		if _, _, err := loadAndFinalize(e, r, n, in.corpus); err != nil {
			return err
		}
		base, err := e.events(n.base)
		if err != nil {
			return err
		}
		var s streamed
		if _, err := e.inPhase("window", func() error {
			s, err = stream(e, &r.ops, "ingest", n.base, in.stream, e.clients, false)
			return err
		}); err != nil {
			return err
		}
		windowMetrics(r, in, s, &lat)
		if err := diskPerEvent(e, r, n.dataDir, n.base); err != nil {
			return err
		}
		if err := endOfRun(e, r, n, base.Events+in.ackedEvents(s.bodies), 1); err != nil {
			return err
		}
		if err := os.RemoveAll(n.dataDir); err != nil {
			return err
		}
	}
	latencyMetrics(r, lat)
	return nil
}

// diskPerEvent records data-dir bytes per live event.
func diskPerEvent(e *env, r *result, dir, base string) error {
	ev, err := e.events(base)
	if err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.observe("disk_bytes_per_event", float64(size)/float64(max(ev.Events, 1)))
	return nil
}

// ---------------------------------------------------------------------
// ingest_retained
// ---------------------------------------------------------------------

func runIngestRetained(e *env, p params, in *inputs, r *result) error {
	n, err := e.startNode("retained", in.corpus.dir, "-retention", retention.String())
	if err != nil {
		return err
	}
	dataDir := n.dataDir
	if err := e.waitPhase(n, "loading", 30*time.Second); err != nil {
		return err
	}
	if _, _, err := loadAndFinalize(e, r, n, in.corpus); err != nil {
		return err
	}
	// Fill the retention window untimed, so the timed window starts in
	// the steady state where every put is matched by an eviction.
	if _, err := e.inPhase("fill", func() error {
		_, err := stream(e, &r.ops, "fill", n.base, in.fill, e.clients, false)
		return err
	}); err != nil {
		return err
	}
	// The stream in equal segments: in the steady state they are the same
	// work, each one observation of the rate.
	var lat latencies
	for seg := 0; seg < segments; seg++ {
		part := in.segment(seg)
		var s streamed
		if _, err := e.inPhase("window", func() error {
			s, err = stream(e, &r.ops, "ingest", n.base, part.stream, e.clients, false)
			return err
		}); err != nil {
			return err
		}
		windowMetrics(r, part, s, &lat)
	}
	latencyMetrics(r, lat)
	if err := diskPerEvent(e, r, dataDir, n.base); err != nil {
		return err
	}
	ev, err := e.events(n.base)
	if err != nil {
		return err
	}
	// The store sweeps once its span passes retention + 25%; one more
	// batch may land before the sweep.
	span, limit := ev.Span.Last.Sub(ev.Span.First), retention+retention/4+bulkBatch*time.Millisecond
	r.check("store span ≤ retention + slack + one batch", span <= limit, "span %v, limit %v", span, limit)
	// Compaction's end state: each snapshot makes the segments below the
	// previous snapshot removable, so however long the window ran the WAL
	// holds a handful of segments and two snapshots. (The ingest journal
	// beside them is never truncated at this commit; its size is printed,
	// not checked.)
	segs, _ := filepath.Glob(filepath.Join(wal.WALDirOf(dataDir), "seg-*.log"))
	snaps, _ := filepath.Glob(filepath.Join(wal.SnapDirOf(dataDir), "snap-*.snap"))
	r.check("WAL compacted to ≤ 4 segments and ≤ 2 snapshots", len(segs) <= 4 && len(snaps) <= 2,
		"%d segments, %d snapshots", len(segs), len(snaps))
	if fi, err := os.Stat(filepath.Join(dataDir, "journal.log")); err == nil {
		r.diag["retained.journal_bytes_per_live_event"] = float64(fi.Size()) / float64(max(ev.Events, 1))
	}
	return endOfRun(e, r, n, -1, p.restarts())
}

// ---------------------------------------------------------------------
// replicated
// ---------------------------------------------------------------------

func runReplicated(e *env, p params, in *inputs, r *result) error {
	primary, err := e.startNode("primary", in.corpus.dir)
	if err != nil {
		return err
	}
	if err := e.waitPhase(primary, "loading", 30*time.Second); err != nil {
		return err
	}
	follower, err := e.startNode("follower", in.corpus.dir, "-replica-of", primary.base)
	if err != nil {
		return err
	}
	if err := e.waitPhase(follower, "", 30*time.Second); err != nil {
		return err
	}
	if _, _, err := loadAndFinalize(e, r, primary, in.corpus); err != nil {
		return err
	}
	base, err := e.events(primary.base)
	if err != nil {
		return err
	}
	var s streamed
	if _, err := e.inPhase("window", func() error {
		if e.tr != nil {
			// The traced run also watches the follower's lag gauge; the
			// measured run leaves the two cores to the three processes.
			stop := sampleLag(e, follower, r)
			defer stop()
		}
		s, err = stream(e, &r.ops, "ingest", primary.base, in.stream, e.clients, false)
		return err
	}); err != nil {
		return err
	}
	var lat latencies
	windowMetrics(r, in, s, &lat)
	latencyMetrics(r, lat)
	want := base.Events + in.ackedEvents(s.bodies)

	catchup, err := e.inPhase("catchup", func() error { return waitCaughtUp(e, primary, follower) })
	if err != nil {
		return err
	}
	r.set("replica_catchup_s", catchup.Seconds(), 1)
	// What the follower sustained: everything acknowledged, applied by
	// the time it had caught up.
	r.layer["replica.follower.apply.events_per_s"] = float64(in.ackedEvents(s.bodies)) / (s.elapsed + catchup).Seconds()
	fev, err := e.events(follower.base)
	if err != nil {
		return err
	}
	r.check("follower events = events acknowledged", fev.Events == want, "%d at follower, %d acknowledged", fev.Events, want)
	pb, err := breakdowns(e, primary.base)
	if err != nil {
		return err
	}
	fb, err := breakdowns(e, follower.base)
	if err != nil {
		return err
	}
	r.check("follower /v1/breakdown bytes = primary's", bytes.Equal(pb, fb), "%d vs %d bytes", len(pb), len(fb))

	// Reads at the follower: the browse mix over the small corpus.
	ids, err := symptomIDs(e, &r.ops, follower.base)
	if err != nil {
		return err
	}
	var reads readStats
	if _, err := e.inPhase("reads", func() error {
		reads, err = readMix(e, &r.ops, follower.base, ids, false, 1200, nil)
		return err
	}); err != nil {
		return err
	}
	p50, p99 := reads.browse.quantiles()
	r.setOpt("browse_p50_ms", p50, len(reads.browse))
	r.setOpt("browse_p99_ms", p99, len(reads.browse))

	pst, err := e.stats(primary.base)
	if err != nil {
		return err
	}
	pipelineCounters(r, pst)
	if err := writeAmplification(r, primary, pst); err != nil {
		return err
	}
	primary.readRSS()
	r.observe("server_rss_mb", primary.peakRSS)
	primary.kill(&e.procs)

	var promotedDigests []string
	promote, err := e.inPhase("promote", func() error {
		out, err := e.runTool("promote", "-addr", follower.base)
		if err != nil {
			return fmt.Errorf("grca promote: %v\n%s", err, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "shard" && f[2] == "digest" {
				promotedDigests = append(promotedDigests, f[3])
			}
		}
		// One more event, continuing the stream: promotion is over when
		// the node takes a write.
		extra, _ := in.ups.encode(1, 1)
		_, _, err = e.ingest(&r.ops, "ingest", follower.base, extra[0])
		return err
	})
	if err != nil {
		return err
	}
	r.set("promote_s", promote.Seconds(), 1)
	want++ // the post-promotion write
	pev, err := e.events(follower.base)
	if err != nil {
		return err
	}
	r.check("promoted events = events acknowledged", pev.Events == want, "%d at promoted node, %d acknowledged", pev.Events, want)
	if err := diskPerEvent(e, r, follower.dataDir, follower.base); err != nil {
		return err
	}
	follower.kill(&e.procs)

	// The failed primary comes back: the same restart as ingest_bulk's.
	for i := 0; i < p.restarts(); i++ {
		if err := e.launch(primary); err != nil {
			return err
		}
		t0 := time.Now()
		if err := e.waitPhase(primary, "serving", 120*time.Second); err != nil {
			return err
		}
		r.observe("restart_s", time.Since(t0).Seconds())
		rev, err := e.events(primary.base)
		if err != nil {
			return err
		}
		r.check("events after restart = events acknowledged", rev.Events == want-1, "%d after restart, %d acknowledged", rev.Events, want-1)
		primary.kill(&e.procs)
	}

	// The promoted node reported its store digest before it took the
	// extra write; the dead primary's WAL recovers the store it must equal.
	l, st, _, err := wal.Open(primary.dataDir, wal.Options{})
	if err != nil {
		return err
	}
	digest := wal.StoreDigest(st)
	l.Close() //nolint:errcheck // read-only use
	got := strings.Join(promotedDigests, ",")
	r.check("promoted node's StoreDigest = primary's", got == digest, "promoted %s, primary %s", got, digest)
	return nil
}

// sampleLag polls the follower's journal lag gauge until the returned
// stop function is called, keeping the peak as replica.lag.peak_bytes.
func sampleLag(e *env, follower *node, r *result) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		peak := 0.0
		for {
			select {
			case <-quit:
				r.layer["replica.lag.peak_bytes"] = peak
				return
			case <-time.After(50 * time.Millisecond):
				if st, err := e.stats(follower.base); err == nil {
					peak = max(peak, st.Metrics.Gauges["replica.follower.journal.lag.bytes"])
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// waitCaughtUp polls until the follower has applied and shipped
// everything the primary had committed when the call began.
func waitCaughtUp(e *env, primary, follower *node) error {
	var meta server.ReplicationMetaJSON
	if err := e.getJSON(primary.base+"/v1/replication/meta", &meta); err != nil {
		return err
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st server.ReplicationStatusJSON
		if err := e.getJSON(follower.base+"/v1/replication/status", &st); err != nil {
			return err
		}
		ok := st.AppliedSeq != nil && len(st.ShardLag) == len(meta.WALNext)
		for i := 0; ok && i < len(st.ShardLag); i++ {
			ok = *st.AppliedSeq >= meta.Sealed[i] &&
				st.ShardLag[i].JournalBytes >= meta.JournalBytes[i] &&
				st.ShardLag[i].WALNext >= meta.WALNext[i]
		}
		if ok {
			return nil
		}
		if st.StreamError != "" {
			return fmt.Errorf("follower stream: %s", st.StreamError)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("follower did not catch up:\n%s", follower.logTail())
}

// ---------------------------------------------------------------------
// Read mix
// ---------------------------------------------------------------------

// symptomIDs asks the node for every application's diagnoses and returns
// the store IDs of the root symptoms, per application.
func symptomIDs(e *env, o *ops, base string) (map[string][]int, error) {
	out := map[string][]int{}
	for _, a := range apps {
		ds, err := diagnoseAll(e, o, base, a.name)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			out[a.name] = append(out[a.name], d.Symptom.ID)
		}
	}
	return out, nil
}

func diagnoseAll(e *env, o *ops, base, app string) ([]server.DiagnosisJSON, error) {
	req, _ := json.Marshal(server.DiagnoseRequest{App: app, All: true})
	body, _, err := e.call(o, "diagnose_all."+app, http.MethodPost, base+"/v1/diagnose", "application/json", req)
	if err != nil {
		return nil, err
	}
	var resp server.DiagnoseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Diagnoses, nil
}

type readStats struct {
	browse, diagnose latencies
}

// readMix round-robins the Result Browser GETs (breakdown, trend, causes,
// drilldown, recent) and, with diagnose, single-symptom POST /v1/diagnose
// over the applications that have symptoms, from one client. It stops
// after limit requests or, when stop is non-nil, once stop is closed.
func readMix(e *env, o *ops, base string, ids map[string][]int, diagnose bool, limit int, stop <-chan struct{}) (readStats, error) {
	var withSymptoms []appSpec
	for _, a := range apps {
		if len(ids[a.name]) > 0 {
			withSymptoms = append(withSymptoms, a)
		}
	}
	if len(withSymptoms) == 0 {
		return readStats{}, fmt.Errorf("read mix: no application has a stored symptom")
	}
	var rs readStats
	kinds := 5
	if diagnose {
		kinds = 6
	}
	for i := 0; limit == 0 || i < limit; i++ {
		if stop != nil {
			select {
			case <-stop:
				return rs, nil
			default:
			}
		}
		a := withSymptoms[(i/kinds)%len(withSymptoms)]
		id := ids[a.name][(i/(kinds*len(withSymptoms)))%len(ids[a.name])]
		var took time.Duration
		var err error
		get := func(name, path string) {
			_, took, err = e.call(o, name, http.MethodGet, base+path, "", nil)
		}
		switch i % kinds {
		case 0:
			get("breakdown", "/v1/breakdown?app="+a.name)
		case 1:
			get("trend", "/v1/trend?bin=1h&name="+url.QueryEscape(a.root))
		case 2:
			get("causes", "/v1/causes?app="+a.name)
		case 3:
			get("drilldown", fmt.Sprintf("/v1/drilldown/%d?app=%s", id, a.name))
		case 4:
			get("recent", "/v1/recent?limit=50")
		case 5:
			req, _ := json.Marshal(server.DiagnoseRequest{App: a.name, ID: id})
			_, took, err = e.call(o, "diagnose", http.MethodPost, base+"/v1/diagnose", "application/json", req)
		}
		if err != nil {
			return rs, err
		}
		if i%kinds == 5 {
			rs.diagnose.add(took)
		} else {
			rs.browse.add(took)
		}
	}
	return rs, nil
}

// labelCounts renders a label multiset for comparison and display.
func labelCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d;", k, m[k])
	}
	return sb.String()
}
