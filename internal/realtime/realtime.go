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

// Processor is a streaming RCA pipeline for one application graph.
type Processor struct {
	// Grace is how long past a symptom's end diagnosis waits for trailing
	// evidence; see GraceFor.
	Grace time.Duration

	// MaxPending, when positive, bounds the pending-symptom queue: once
	// more than MaxPending symptoms await their grace period, the oldest
	// is diagnosed immediately with the evidence observed so far. This is
	// the backpressure valve for a feed storm (a line-card crash flapping
	// hundreds of sessions at once) — memory stays bounded and diagnoses
	// keep flowing, at the cost of possibly-incomplete evidence on the
	// force-drained symptoms. Zero means unbounded.
	MaxPending int

	// OnDiagnosis, when set, observes every diagnosis the processor
	// emits — from grace-elapsed drains, MaxPending force-drains, Flush,
	// and Close — on the goroutine driving the processor, before the
	// diagnosis is returned to the caller. The serving pipeline uses it
	// to fan emitted diagnoses out to the rollup aggregates and the SSE
	// stream. Set it before observing events.
	OnDiagnosis func(engine.Diagnosis)

	eng *engine.Engine
	st  store.Store
	// pmu guards pending (and closed) so PendingSymptoms can be read
	// from other goroutines (the HTTP result-browser handlers) while the
	// owning goroutine observes events. All other state is owned by the
	// driving goroutine.
	pmu     sync.Mutex
	pending []*event.Instance
	now     time.Time
	late    int
	forced  int
	closed  bool
}

// New builds a streaming processor. The store starts empty and fills from
// the observed stream; view supplies the (historically reconstructed)
// network condition exactly as in batch mode. Expansions are memoized on
// the view, so they carry across Observe calls: symptoms landing in an
// already-seen routing epoch reuse the expansions computed for earlier
// symptoms, and for any other consumer of the same view.
func New(view *netstate.View, g *dgraph.Graph, grace time.Duration) *Processor {
	st := store.New()
	return &Processor{Grace: grace, eng: engine.New(st, view, g), st: st}
}

// NewOnStore builds a streaming processor over an existing store that
// someone else fills — the serving pipeline, where the WAL-backed store
// is shared by ingest, diagnosis, and trending. Events reach the
// processor through ObserveStored after the owner has added them;
// calling Observe on such a processor would store them twice.
func NewOnStore(st store.Store, view *netstate.View, g *dgraph.Graph, grace time.Duration) *Processor {
	return &Processor{Grace: grace, eng: engine.New(st, view, g), st: st}
}

// Store exposes the processor's event store (e.g. for trending).
func (p *Processor) Store() store.Store { return p.st }

// Engine exposes the processor's engine, so on-demand diagnoses of the
// same application run on the engine the stream diagnoses with.
func (p *Processor) Engine() *engine.Engine { return p.eng }

// Observe ingests one normalized event instance. Instances should arrive
// in nondecreasing order of availability (their End time), with a
// tolerance of Grace for cross-source skew. An instance older than that is
// still stored (trending and later symptoms must see it) but is flagged by
// the returned late marker and counted, because any symptom already
// diagnosed could not have used it — the delayed-feed failure mode a
// tier-1 collector lives with, surfaced instead of silently misjoined. A
// late root symptom is still diagnosed, immediately, since its grace
// period has already passed.
//
// Observe returns the diagnoses of every pending symptom whose grace
// period elapsed as the stream clock advanced.
func (p *Processor) Observe(in event.Instance) (ds []engine.Diagnosis, late bool) {
	return p.ObserveStored(p.st.Add(in))
}

// ObserveStored is Observe for an instance already added to the
// processor's (shared) store by its owner — the serving pipeline's
// applier. Same ordering contract and results as Observe. The processor
// keeps its own copy of a pending symptom, never stored itself.
func (p *Processor) ObserveStored(stored *event.Instance) (ds []engine.Diagnosis, late bool) {
	if p.isClosed() {
		return nil, false
	}
	avail := stored.End
	if avail.Before(p.now.Add(-p.Grace)) {
		late = true
		p.late++
		mLate.Inc()
	}
	mObserved.Inc()
	if avail.After(p.now) {
		p.now = avail
	}
	if stored.Name == p.eng.Graph.Root {
		// A copy: stored may point into the caller's batch, which the
		// pending queue must neither pin nor see change.
		sym := *stored
		p.pmu.Lock()
		p.pending = append(p.pending, &sym)
		mPendingPeak.SetMax(int64(len(p.pending)))
		p.pmu.Unlock()
	}
	ds = p.drain(false)
	// Backpressure: force-drain the oldest pending symptoms beyond the
	// queue bound.
	for {
		p.pmu.Lock()
		if p.MaxPending <= 0 || len(p.pending) <= p.MaxPending {
			p.pmu.Unlock()
			break
		}
		sym := p.pending[0]
		p.pending = p.pending[1:]
		mPending.Set(int64(len(p.pending)))
		p.pmu.Unlock()
		p.forced++
		mForced.Inc()
		mDiagnosed.Inc()
		ds = append(ds, p.emit(sym))
	}
	return ds, late
}

// emit diagnoses one symptom and fans the result out to OnDiagnosis.
func (p *Processor) emit(sym *event.Instance) engine.Diagnosis {
	d := p.eng.Diagnose(sym)
	if p.OnDiagnosis != nil {
		p.OnDiagnosis(d)
	}
	return d
}

// Flush diagnoses every still-pending symptom; call it when the stream
// ends.
func (p *Processor) Flush() []engine.Diagnosis { return p.drain(true) }

// Close retires the processor: every pending symptom is force-drained —
// diagnosed now with whatever evidence arrived, counted as forced since
// its grace period was cut short — the pending gauge is zeroed, and all
// further observations are ignored. Used on serving-pipeline shutdown,
// where the stream stops mid-grace rather than ending.
func (p *Processor) Close() []engine.Diagnosis {
	if p.isClosed() {
		return nil
	}
	n := p.Pending()
	ds := p.drain(true)
	p.forced += n
	mForced.Add(int64(n))
	p.pmu.Lock()
	p.closed = true
	p.pmu.Unlock()
	return ds
}

func (p *Processor) isClosed() bool {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.closed
}

// Pending reports how many symptoms await their grace period.
func (p *Processor) Pending() int {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return len(p.pending)
}

// PendingSymptoms returns a snapshot of the symptoms awaiting their
// grace period, in observation order. Safe to call from any goroutine;
// the result browser merges these (diagnosed on demand) into the rollup
// aggregates so a breakdown always covers every stored symptom.
func (p *Processor) PendingSymptoms() []*event.Instance {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return append([]*event.Instance(nil), p.pending...)
}

// Late reports how many observed instances arrived beyond the grace
// window (and so were invisible to any already-emitted diagnosis).
func (p *Processor) Late() int { return p.late }

// Forced reports how many pending symptoms were diagnosed early because
// the queue exceeded MaxPending.
func (p *Processor) Forced() int { return p.forced }

func (p *Processor) drain(all bool) []engine.Diagnosis {
	// Partition under the lock, diagnose outside it: Diagnose hits the
	// store and the view's expansion cache and must not serialize against
	// PendingSymptoms readers.
	var ripe []*event.Instance
	p.pmu.Lock()
	kept := p.pending[:0]
	for _, sym := range p.pending {
		if all || !sym.End.Add(p.Grace).After(p.now) {
			ripe = append(ripe, sym)
		} else {
			kept = append(kept, sym)
		}
	}
	for i := len(kept); i < len(p.pending); i++ {
		p.pending[i] = nil
	}
	p.pending = kept
	mPending.Set(int64(len(p.pending)))
	p.pmu.Unlock()
	var out []engine.Diagnosis
	for _, sym := range ripe {
		// Grace wait in event time: how far the stream clock ran past
		// the symptom's end before it could be safely diagnosed.
		mGraceWait.ObserveDuration(p.now.Sub(sym.End))
		mDiagnosed.Inc()
		out = append(out, p.emit(sym))
	}
	return out
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
