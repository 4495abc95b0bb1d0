// Package realtime adds streaming root cause analysis to G-RCA — the
// paper's §VI future-work item "support real-time root cause
// applications". A Processor consumes the normalized event stream as the
// Data Collector produces it and diagnoses each symptom as soon as its
// evidence horizon has passed, rather than in an offline batch.
//
// An event becomes available at its end time (a flap is only a flap once
// the interface came back up). The processor holds each symptom for a
// grace period — long enough for every diagnostic its graph could join to
// have arrived — and then runs the standard engine against the data
// observed so far. Replaying a batch corpus through a Processor therefore
// yields byte-identical diagnoses to the offline run, which is the
// package's central test.
package realtime

import (
	"sync"
	"time"

	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netstate"
	"grca/internal/obs"
	"grca/internal/store"
)

// Streaming-pipeline metrics: queue depth is the backpressure signal a
// real-time deployment watches, the grace-wait histogram shows how long
// symptoms sit before their evidence horizon passes (in event time), late
// counts the arrivals past the grace window the paper's heterogeneous
// feeds would produce without collector-side normalization, and forced
// counts diagnoses emitted early because the pending queue hit its bound.
var (
	mObserved    = obs.GetCounter("realtime.observed")
	mLate        = obs.GetCounter("realtime.late")
	mDiagnosed   = obs.GetCounter("realtime.diagnosed")
	mForced      = obs.GetCounter("realtime.forced")
	mPending     = obs.GetGauge("realtime.pending")
	mPendingPeak = obs.GetGauge("realtime.pending.peak")
	mGraceWait   = obs.GetHistogram("realtime.grace.wait.seconds",
		[]float64{1, 5, 10, 30, 60, 120, 300, 600, 1800, 3600, 7200, 21600, 86400})
)

// Stream is one application a Processor diagnoses: the name OnDiagnosis
// is told, the engine that diagnoses its root symptoms, and how long past
// a symptom's end diagnosis waits for trailing evidence (see GraceFor).
type Stream struct {
	Name   string
	Engine *engine.Engine
	Grace  time.Duration
}

// queue is one stream's pending symptoms, in observation order. due is
// at most the earliest End+Grace among them: until the clock reaches it,
// nothing is ripe and the queue is not scanned.
type queue struct {
	Stream
	pending []*event.Instance
	due     time.Time
}

// ripe is one symptom taken off its queue for diagnosis.
type ripe struct {
	q   *queue
	sym *event.Instance
}

// Processor is a streaming RCA pipeline: one event stream, one stream
// clock, diagnosed for any number of applications (streams) at once.
type Processor struct {
	// MaxPending, when positive, bounds each stream's pending-symptom
	// queue: once more than MaxPending symptoms await their grace period,
	// the oldest is diagnosed immediately with the evidence observed so
	// far. This is the backpressure valve for a feed storm (a line-card
	// crash flapping hundreds of sessions at once) — memory stays bounded
	// and diagnoses keep flowing, at the cost of possibly-incomplete
	// evidence on the force-drained symptoms. Zero means unbounded.
	MaxPending int

	// OnDiagnosis, when set, observes every diagnosis the processor
	// emits — from grace-elapsed drains, MaxPending force-drains, Flush,
	// and Close — with its stream's name, on the goroutine driving the
	// processor, before the diagnosis is returned to the caller. The
	// serving pipeline uses it to fan emitted diagnoses out to the rollup
	// aggregates and the SSE stream. Set it before observing events.
	OnDiagnosis func(stream string, d engine.Diagnosis)

	st     store.Store
	queues []*queue          // in stream order: the order one event's diagnoses are emitted in
	byRoot map[string]*queue // root symptom name → the stream it is pending in
	// pmu guards the clock, the queues, closed and forced: PendingSymptoms
	// is read from other goroutines (the HTTP result browser). An
	// observation takes it once; diagnoses run outside it.
	pmu    sync.Mutex
	now    time.Time
	closed bool
	forced int
}

// New builds a streaming processor for one application graph. The store
// starts empty and fills from the observed stream; view supplies the
// (historically reconstructed) network condition exactly as in batch
// mode, and its expansion memo carries across Observe calls and to every
// other consumer of the same view.
func New(view *netstate.View, g *dgraph.Graph, grace time.Duration) *Processor {
	return NewOnStore(store.New(), view, g, grace)
}

// NewOnStore is New over an existing store that someone else fills — the
// serving pipeline, where the WAL-backed store is shared by ingest,
// diagnosis, and trending. Events reach the processor through
// ObserveStored after the owner has added them; calling Observe on such a
// processor would store them twice.
func NewOnStore(st store.Store, view *netstate.View, g *dgraph.Graph, grace time.Duration) *Processor {
	return NewStreams(st, Stream{Engine: engine.New(st, view, g), Grace: grace})
}

// NewStreams builds one processor over st for several applications: each
// event is observed once, against one stream clock, and held by the
// stream whose graph it is the root of. Each stream's engine must read st,
// and no two streams may share a root symptom.
func NewStreams(st store.Store, streams ...Stream) *Processor {
	p := &Processor{st: st, byRoot: map[string]*queue{}}
	for _, s := range streams {
		if p.byRoot[s.Engine.Graph.Root] != nil {
			panic("realtime: two streams with root " + s.Engine.Graph.Root)
		}
		p.byRoot[s.Engine.Graph.Root] = &queue{Stream: s}
		p.queues = append(p.queues, p.byRoot[s.Engine.Graph.Root])
	}
	return p
}

// Observe ingests one normalized event instance and returns the
// diagnoses of every pending symptom whose grace period elapsed as the
// stream clock advanced. Instances should arrive in nondecreasing order of
// availability (their End time), with a tolerance of Grace for
// cross-source skew. An older instance is still stored (trending and later
// symptoms must see it) but reported late and counted: no symptom already
// diagnosed could have used it, and a delayed feed is surfaced instead of
// silently misjoined. A late root symptom is diagnosed immediately.
func (p *Processor) Observe(in event.Instance) (ds []engine.Diagnosis, late bool) {
	ds, n := p.ObserveStored(p.st.Add(in))
	return ds, n > 0
}

// ObserveStored is Observe for an instance already added to the
// processor's (shared) store by its owner — the serving pipeline's
// applier. Same ordering contract as Observe; late counts the streams
// whose grace the instance arrived beyond. Diagnoses come in stream order,
// and in observation order within a stream. The processor keeps its own
// copy of a pending symptom, never stored itself.
func (p *Processor) ObserveStored(stored *event.Instance) (ds []engine.Diagnosis, late int) {
	avail := stored.End
	p.pmu.Lock()
	if p.closed {
		p.pmu.Unlock()
		return nil, 0
	}
	if avail.Before(p.now) {
		for _, q := range p.queues {
			if avail.Before(p.now.Add(-q.Grace)) {
				late++
			}
		}
		mLate.Add(int64(late))
	}
	mObserved.Add(int64(len(p.queues)))
	if avail.After(p.now) {
		p.now = avail
	}
	if q := p.byRoot[stored.Name]; q != nil {
		// A copy: stored may point into the caller's batch, which the
		// pending queue must neither pin nor see change.
		sym := *stored
		if due := sym.End.Add(q.Grace); len(q.pending) == 0 || due.Before(q.due) {
			q.due = due
		}
		q.pending = append(q.pending, &sym)
		mPendingPeak.SetMax(int64(p.pendingLocked()))
	}
	var out []ripe
	for _, q := range p.queues {
		out = q.take(p.now, false, out)
		// Backpressure: force-drain the oldest beyond the queue bound.
		for p.MaxPending > 0 && len(q.pending) > p.MaxPending {
			out = append(out, ripe{q, q.pending[0]})
			q.pending = q.pending[1:]
			p.forced++
			mForced.Inc()
		}
	}
	mPending.Set(int64(p.pendingLocked()))
	p.pmu.Unlock()
	return p.emit(out), late
}

// Advance moves the stream clock to t, if t is later, and returns the
// diagnoses of every pending symptom whose grace period has elapsed by
// then — what observing a non-symptom event that ends at t would return.
// A restart replays the stored tail's root symptoms alone and then
// advances to the store's last End.
func (p *Processor) Advance(t time.Time) []engine.Diagnosis {
	p.pmu.Lock()
	if p.closed {
		p.pmu.Unlock()
		return nil
	}
	if t.After(p.now) {
		p.now = t
	}
	var out []ripe
	for _, q := range p.queues {
		out = q.take(p.now, false, out)
	}
	mPending.Set(int64(p.pendingLocked()))
	p.pmu.Unlock()
	return p.emit(out)
}

// take moves q's symptoms whose grace period has elapsed by now (all of
// them, with all) onto out, and records each one's grace wait in event
// time: how far the clock ran past its end before it could be diagnosed.
func (q *queue) take(now time.Time, all bool, out []ripe) []ripe {
	if len(q.pending) == 0 || !all && q.due.After(now) {
		return out
	}
	kept := q.pending[:0]
	for _, sym := range q.pending {
		due := sym.End.Add(q.Grace)
		if all || !due.After(now) {
			mGraceWait.ObserveDuration(now.Sub(sym.End))
			out = append(out, ripe{q, sym})
			continue
		}
		if len(kept) == 0 || due.Before(q.due) {
			q.due = due
		}
		kept = append(kept, sym)
	}
	clear(q.pending[len(kept):])
	q.pending = kept
	return out
}

// emit diagnoses each taken symptom with its stream's engine, outside pmu,
// and fans the result out to OnDiagnosis.
func (p *Processor) emit(out []ripe) []engine.Diagnosis {
	var ds []engine.Diagnosis
	for _, r := range out {
		mDiagnosed.Inc()
		d := r.q.Engine.Diagnose(r.sym)
		if p.OnDiagnosis != nil {
			p.OnDiagnosis(r.q.Name, d)
		}
		ds = append(ds, d)
	}
	return ds
}

// drain takes every stream's pending symptoms (none once closed), under
// pmu; with forced (Close) they count as forced and the processor closes.
func (p *Processor) drain(forced bool) []engine.Diagnosis {
	p.pmu.Lock()
	var out []ripe
	for _, q := range p.queues {
		out = q.take(p.now, true, out)
	}
	if forced {
		p.forced += len(out)
		mForced.Add(int64(len(out)))
		p.closed = true
	}
	mPending.Set(0)
	p.pmu.Unlock()
	return p.emit(out)
}

// Flush diagnoses every still-pending symptom; call it when the stream
// ends.
func (p *Processor) Flush() []engine.Diagnosis { return p.drain(false) }

// Close retires the processor: every pending symptom is force-drained —
// diagnosed now with whatever evidence arrived, counted as forced since
// its grace period was cut short — the pending gauge is zeroed, and all
// further observations are ignored. Used on serving-pipeline shutdown,
// where the stream stops mid-grace rather than ending.
func (p *Processor) Close() []engine.Diagnosis { return p.drain(true) }

// pendingLocked counts the symptoms pending in all streams.
func (p *Processor) pendingLocked() int {
	n := 0
	for _, q := range p.queues {
		n += len(q.pending)
	}
	return n
}

// PendingSymptoms returns a snapshot of the named stream's symptoms
// awaiting their grace period, in observation order. Safe to call from any
// goroutine; the result browser merges these (diagnosed on demand) into
// the rollup aggregates so a breakdown always covers every stored symptom.
func (p *Processor) PendingSymptoms(stream string) []*event.Instance {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	for _, q := range p.queues {
		if q.Name == stream {
			return append([]*event.Instance(nil), q.pending...)
		}
	}
	return nil
}

// Forced reports how many symptoms MaxPending or Close force-drained.
func (p *Processor) Forced() int {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.forced
}

// GraceFor derives a safe grace period from a diagnosis graph: the
// maximum "future reach" of any evidence chain from the root — how long
// after a symptom ends the latest joinable diagnostic can still become
// available. maxEventDuration bounds how long an individual diagnostic
// event can run (e.g. the collector's flap window); it is added per chain
// level because a diagnostic's availability is its end time.
func GraceFor(g *dgraph.Graph, maxEventDuration time.Duration) time.Duration {
	memo := map[string]time.Duration{}
	var reach func(name string, onPath map[string]bool) time.Duration
	reach = func(name string, onPath map[string]bool) time.Duration {
		if r, ok := memo[name]; ok {
			return r
		}
		if onPath[name] {
			return 0 // defensive: validated graphs are acyclic
		}
		onPath[name] = true
		var best time.Duration
		for _, rule := range g.RulesFor(name) {
			r := rule.Temporal.Symptom.Right + rule.Temporal.Diagnostic.Left +
				maxEventDuration + reach(rule.Diagnostic, onPath)
			if r > best {
				best = r
			}
		}
		delete(onPath, name)
		memo[name] = best
		return best
	}
	return reach(g.Root, map[string]bool{})
}
