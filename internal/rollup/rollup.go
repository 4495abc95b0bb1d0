// Package rollup maintains the pre-computed aggregates behind the live
// Result Browser (paper §II-F): per-application root-cause breakdown
// counters, time-binned trend series for events and causes, and a
// bounded ring of recent diagnoses for streaming. Aggregates are updated
// incrementally on the ingest/diagnose path — store append/evict hooks
// feed the event bins, the realtime processor's diagnosis fan-out feeds
// the cause counters — so the breakdown and trend endpoints answer from
// O(causes) and O(bins) state instead of re-diagnosing the store per
// request.
//
// # The breakdown invariant
//
// A Rollup's breakdown for an application equals the batch
// browser.Breakdown over one diagnosis of every live root symptom in the
// store, each diagnosed with its full evidence. Counters alone cannot
// provide that — symptoms sitting in the realtime processor's grace
// window have no diagnosis yet — so reads merge in on-demand diagnoses
// of the pending symptoms (see BreakdownCounts). The counted set
// (symptom ID → label) makes the merge exact under races: a symptom
// drained between the pending snapshot and the merge is skipped because
// it is already counted.
//
// Deviations from a from-scratch batch run, both inherited from the
// realtime package's contract: a force-drained symptom (MaxPending
// overflow or shutdown) was counted with possibly-incomplete evidence,
// and under retention eviction the remembered label is the one diagnosed
// at drain time even if the evidence supporting it has since been
// evicted. A third, evidence that arrives after the symptom it explains
// has drained, is the caller's to repair by counting again
// (CountDiagnosis replaces a counted label); the server does it on the
// next read after an out-of-order arrival.
package rollup

import (
	"sync"
	"time"

	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/store"
)

var (
	mEventsBinned = obs.GetCounter("rollup.events.binned")
	mCounted      = obs.GetCounter("rollup.diagnoses.counted")
	mRecounted    = obs.GetCounter("rollup.diagnoses.recounted")
	mEvictedEv    = obs.GetCounter("rollup.evicted.events")
	mEvictedDiag  = obs.GetCounter("rollup.evicted.diagnoses")
)

// Config sizes a Rollup.
type Config struct {
	// Bin is the base width of the trend bins (default one minute).
	// Trend queries may aggregate to any multiple of it.
	Bin time.Duration
	// RecentSize bounds the ring of recent diagnoses kept for the SSE
	// stream's replay catch-up (default 256).
	RecentSize int
}

// Entry is one diagnosis in the recent ring. Seq increases by one per
// live diagnosis and orders the SSE stream.
type Entry struct {
	Seq int64
	App string
	D   engine.Diagnosis
}

// causeSeries is one root-cause label's counters: total plus per-bin
// counts keyed by the symptom start truncated to the base bin (unix
// seconds).
type causeSeries struct {
	total int
	bins  map[int64]int
}

// appAgg aggregates one application's diagnoses.
type appAgg struct {
	labels map[string]*causeSeries
	// counted maps each counted symptom's store ID to the raw primary
	// label it was counted under — the dedupe set behind the breakdown
	// invariant and the decrement index for eviction.
	counted map[int]string
}

// Rollup holds the incrementally-maintained Result Browser aggregates.
// Safe for concurrent use: writers are the store hooks and diagnosis
// fan-out, readers the HTTP handlers.
type Rollup struct {
	bin        time.Duration
	recentSize int

	mu sync.RWMutex
	// events: event name → base-bin start (unix seconds) → count.
	events map[string]map[int64]int
	apps   map[string]*appAgg
	recent []Entry // fixed-size ring once full
	next   int     // ring write position
	seq    int64
}

// New returns an empty rollup.
func New(cfg Config) *Rollup {
	if cfg.Bin <= 0 {
		cfg.Bin = time.Minute
	}
	if cfg.RecentSize <= 0 {
		cfg.RecentSize = 256
	}
	return &Rollup{
		bin:        cfg.Bin,
		recentSize: cfg.RecentSize,
		events:     map[string]map[int64]int{},
		apps:       map[string]*appAgg{},
	}
}

// Bin returns the base bin width. Trend queries must use a multiple.
func (r *Rollup) Bin() time.Duration { return r.bin }

func (r *Rollup) key(t time.Time) int64 { return t.Truncate(r.bin).Unix() }

func (r *Rollup) app(name string) *appAgg {
	a := r.apps[name]
	if a == nil {
		a = &appAgg{labels: map[string]*causeSeries{}, counted: map[int]string{}}
		r.apps[name] = a
	}
	return a
}

// ObserveEvent bins one stored instance. Registered as a store OnAppend
// hook, so it runs under the store's write lock and stays O(1).
func (r *Rollup) ObserveEvent(in *event.Instance) {
	k := r.key(in.Start)
	r.mu.Lock()
	bins := r.events[in.Name]
	if bins == nil {
		bins = map[int64]int{}
		r.events[in.Name] = bins
	}
	bins[k]++
	r.mu.Unlock()
	mEventsBinned.Inc()
}

// SeedEvents replays every live instance of the store into the event
// bins — the recovery path, where the store was rebuilt from snapshot +
// WAL before the rollup existed. Register the hooks after seeding.
func (r *Rollup) SeedEvents(st store.Store) {
	st.SnapshotTo(func(int, int, int) error { return nil }, func(in *event.Instance) error { //nolint:errcheck // neither callback fails
		r.ObserveEvent(in)
		return nil
	})
}

// Reset forgets every binned event and counted diagnosis, for a store
// whose content was replaced wholesale (a replica loading a checkpoint):
// seed again from the new content. The recent ring and its sequence stay
// — stream cursors held by clients must keep ascending.
func (r *Rollup) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = map[string]map[int64]int{}
	r.apps = map[string]*appAgg{}
}

// EvictEvents reverses ObserveEvent for retention-evicted instances and
// un-counts any evicted root symptoms, keeping the breakdown invariant
// scoped to live symptoms. Registered as a store OnEvict hook.
func (r *Rollup) EvictEvents(evicted []store.Evicted, cutoff time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range evicted {
		k := r.key(time.Unix(0, in.Start))
		if bins := r.events[in.Name]; bins != nil {
			if bins[k]--; bins[k] <= 0 {
				delete(bins, k)
			}
			if len(bins) == 0 {
				delete(r.events, in.Name)
			}
		}
		mEvictedEv.Inc()
		for _, a := range r.apps {
			label, ok := a.counted[in.ID]
			if !ok {
				continue
			}
			a.uncount(in.ID, label, k)
			mEvictedDiag.Inc()
		}
	}
}

func (a *appAgg) uncount(id int, label string, bin int64) {
	delete(a.counted, id)
	cs := a.labels[label]
	if cs == nil {
		return
	}
	cs.total--
	if cs.bins[bin]--; cs.bins[bin] <= 0 {
		delete(cs.bins, bin)
	}
	if cs.total <= 0 {
		delete(a.labels, label)
	}
}

// countLocked counts (or re-counts) one diagnosis for app. A symptom
// already counted has its label replaced — the later diagnosis saw at
// least as much evidence (seed-then-drain ordering).
func (r *Rollup) countLocked(app string, d engine.Diagnosis) {
	a := r.app(app)
	id := d.Symptom.ID
	k := r.key(d.Symptom.Start)
	label := d.Primary()
	if prev, ok := a.counted[id]; ok {
		if prev == label {
			return
		}
		a.uncount(id, prev, k)
		mRecounted.Inc()
	} else {
		mCounted.Inc()
	}
	a.counted[id] = label
	cs := a.labels[label]
	if cs == nil {
		cs = &causeSeries{bins: map[int64]int{}}
		a.labels[label] = cs
	}
	cs.total++
	cs.bins[k]++
}

// CountDiagnosis folds one diagnosis into the breakdown and cause-trend
// counters without touching the recent ring — the seed path, where
// startup diagnoses every stored root symptom to establish the
// invariant before live traffic resumes.
func (r *Rollup) CountDiagnosis(app string, d engine.Diagnosis) {
	r.mu.Lock()
	r.countLocked(app, d)
	r.mu.Unlock()
}

// AddDiagnosis is CountDiagnosis plus a push onto the recent ring; it
// returns the diagnosis' stream sequence number. This is the realtime
// processor's OnDiagnosis fan-out target.
func (r *Rollup) AddDiagnosis(app string, d engine.Diagnosis) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.countLocked(app, d)
	r.seq++
	e := Entry{Seq: r.seq, App: app, D: d}
	if len(r.recent) < r.recentSize {
		r.recent = append(r.recent, e)
	} else {
		r.recent[r.next] = e
	}
	r.next = (r.next + 1) % r.recentSize
	return r.seq
}

// LastSeq returns the sequence number of the newest ring entry (0 before
// any live diagnosis).
func (r *Rollup) LastSeq() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// RecentSince returns up to limit ring entries with Seq > after, oldest
// first — the SSE replay catch-up. limit <= 0 means no limit.
func (r *Rollup) RecentSince(after int64, limit int) []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Entry
	n := len(r.recent)
	start := 0
	if n == r.recentSize {
		start = r.next // oldest slot once the ring wrapped
	}
	for i := 0; i < n; i++ {
		e := r.recent[(start+i)%n]
		if e.Seq <= after {
			continue
		}
		if limit > 0 && len(out) == limit {
			break
		}
		out = append(out, e)
	}
	return out
}

// BreakdownCounts returns the per-label counts and total for app's
// breakdown, merging extra — on-demand diagnoses of the symptoms still
// pending in the realtime processor — under the same lock so each
// symptom is counted exactly once even if it drains concurrently.
// A non-zero from restricts the tally to symptoms whose bin-truncated
// start is at or after from's bin. Labels are raw engine labels; callers
// apply display mapping.
func (r *Rollup) BreakdownCounts(app string, from time.Time, extra []engine.Diagnosis) (counts map[string]int, total int) {
	windowed := !from.IsZero()
	var fromKey int64
	if windowed {
		fromKey = from.Truncate(r.bin).Unix()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	counts = map[string]int{}
	a := r.apps[app]
	if a != nil {
		if !windowed {
			for label, cs := range a.labels {
				counts[label] = cs.total
			}
			total = len(a.counted)
		} else {
			for label, cs := range a.labels {
				n := 0
				for k, c := range cs.bins {
					if k >= fromKey {
						n += c
					}
				}
				if n > 0 {
					counts[label] = n
					total += n
				}
			}
		}
	}
	for _, d := range extra {
		if a != nil {
			if _, dup := a.counted[d.Symptom.ID]; dup {
				continue
			}
		}
		if windowed && r.key(d.Symptom.Start) < fromKey {
			continue
		}
		counts[d.Primary()]++
		total++
	}
	return counts, total
}

// Trend renders the event-occurrence series for name over [from, to] at
// the given bin width (a multiple of the base bin; from must lie on the
// bin grid). With from ≤ every live Start and to ≥ the store span's last
// end — the serving defaults — the result is exactly browser.Trend over
// the same store; for a narrower custom window the final bin counts by
// bin-truncated start (a base-bin-granular boundary) where browser.Trend
// cuts on raw start.
func (r *Rollup) Trend(name string, from, to time.Time, bin time.Duration) []browser.TrendPoint {
	points := browser.NewSeries(from, to, bin)
	if points == nil {
		return nil
	}
	fromSec, toSec, binSec := from.Unix(), to.Unix(), int64(bin/time.Second)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, n := range r.events[name] {
		if k < fromSec || k > toSec {
			continue
		}
		if i := int((k - fromSec) / binSec); i >= 0 && i < len(points) {
			points[i].Count += n
		}
	}
	return points
}

// CauseTrend renders the per-bin count of app diagnoses whose primary
// label is label, merging extra pending diagnoses exactly as
// BreakdownCounts does. Equals browser.TrendDiagnoses over one diagnosis
// of every live root symptom for any window aligned to the base-bin
// grid.
func (r *Rollup) CauseTrend(app, label string, from, to time.Time, bin time.Duration, extra []engine.Diagnosis) []browser.TrendPoint {
	points := browser.NewSeries(from, to, bin)
	if points == nil {
		return nil
	}
	fromSec, binSec := from.Unix(), int64(bin/time.Second)
	idx := func(k int64) int {
		if k < fromSec {
			return -1
		}
		return int((k - fromSec) / binSec)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	a := r.apps[app]
	if a != nil {
		if cs := a.labels[label]; cs != nil {
			for k, n := range cs.bins {
				if i := idx(k); i >= 0 && i < len(points) {
					points[i].Count += n
				}
			}
		}
	}
	for _, d := range extra {
		if d.Primary() != label {
			continue
		}
		if a != nil {
			if _, dup := a.counted[d.Symptom.ID]; dup {
				continue
			}
		}
		if i := idx(r.key(d.Symptom.Start)); i >= 0 && i < len(points) {
			points[i].Count++
		}
	}
	return points
}
