// Package rollup maintains the pre-computed aggregates behind the live
// Result Browser (paper §II-F): per-application root-cause breakdown
// counters and time-binned cause trend series. (The stream of recent
// diagnoses is not an aggregate; the server's SSE hub keeps it.)
// Aggregates are updated incrementally on the diagnose path — the server
// counts each diagnosis its realtime processor returns, the store's evict
// hook un-counts — so the breakdown and cause trend endpoints answer from
// O(causes) and O(bins) state instead of re-diagnosing the store per
// request.
//
// Event trends are no aggregate of the server's: it counts them from the
// name's sorted index in the store (store.Memory.CountStarts). The event half of
// a Rollup — ObserveEvent, SeedEvents, Trend — is off the server's path
// and stays for the benchmark's layer rows (bench/) and as the oracle the
// server's name trends are held byte-equal to.
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
// overflow) was counted with possibly-incomplete evidence,
// and under retention eviction the remembered label is the one diagnosed
// at drain time even if the evidence supporting it has since been
// evicted. A third, evidence that arrives after the symptom it explains
// has drained, is the caller's to repair by counting again
// (AddDiagnosis replaces a counted label); the server does it on the
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

// Config configures a Rollup. It has no fields, since a rollup holds only
// aggregates over a constant base bin; it is kept, empty, because the
// benchmark (bench/) builds its rollups with rollup.New(rollup.Config{}).
type Config struct{}

// baseBin is the width of the trend bins. Trend queries may aggregate to
// any multiple of it.
const baseBin = time.Minute

// minute is a base bin's key: its start as whole minutes since the Unix
// epoch. Every instant a store holds, event.MinTime to event.MaxTime, is
// within about ±1.5e8 minutes of it, so an int32 holds them all.
type minute int32

// minuteOf returns the key of the bin that holds t.
func minuteOf(t time.Time) minute { return minute(t.Truncate(baseBin).Unix() / 60) }

// unix returns the bin's start in Unix seconds.
func (m minute) unix() int64 { return int64(m) * 60 }

// bins counts events or diagnoses per base bin, 8 bytes an entry.
type bins map[minute]uint32

// dec takes one off the count at k, deleting the entry at zero. A key the
// map does not hold is left alone: nothing counted there, nothing to
// take off.
func (b bins) dec(k minute) {
	switch c, ok := b[k]; {
	case !ok:
	case c <= 1:
		delete(b, k)
	default:
		b[k] = c - 1
	}
}

// causeSeries is one root-cause label's counters: total plus per-bin
// counts keyed by the symptom start's base bin.
type causeSeries struct {
	total int
	bins  bins
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
	mu sync.RWMutex
	// events: event name → base bin → count.
	events map[string]bins
	apps   map[string]*appAgg
}

// New returns an empty rollup.
func New(Config) *Rollup {
	return &Rollup{events: map[string]bins{}, apps: map[string]*appAgg{}}
}

// Bin returns the base bin width, one minute. Trend queries must use a
// multiple.
func (r *Rollup) Bin() time.Duration { return baseBin }

func (r *Rollup) app(name string) *appAgg {
	a := r.apps[name]
	if a == nil {
		a = &appAgg{labels: map[string]*causeSeries{}, counted: map[int]string{}}
		r.apps[name] = a
	}
	return a
}

// ObserveEvent bins one stored instance: a store OnAppend hook, run under
// the store's write lock, so O(1). The server registers it no more (it
// counts event trends from the store); bench/ and the server's trend
// oracle do.
func (r *Rollup) ObserveEvent(in *event.Instance) {
	k := minuteOf(in.Start)
	r.mu.Lock()
	b := r.events[in.Name]
	if b == nil {
		b = bins{}
		r.events[in.Name] = b
	}
	b[k]++
	r.mu.Unlock()
	mEventsBinned.Inc()
}

// SeedEvents replays every live instance of the store into the event
// bins, for a store filled before the rollup existed. Register the hooks
// after seeding.
func (r *Rollup) SeedEvents(st store.Store) {
	st.SnapshotTo(func(int, int, int) error { return nil }, func(in *event.Instance) error { //nolint:errcheck // neither callback fails
		r.ObserveEvent(in)
		return nil
	})
}

// Reset forgets every binned event and counted diagnosis, for a store
// whose content was replaced wholesale (a replica loading a checkpoint):
// count again from the new content.
func (r *Rollup) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = map[string]bins{}
	r.apps = map[string]*appAgg{}
}

// EvictEvents reverses ObserveEvent for retention-evicted instances (a
// no-op for a name never binned) and un-counts any evicted root symptoms,
// keeping the breakdown invariant scoped to live symptoms. Registered as a
// store OnEvict hook.
func (r *Rollup) EvictEvents(evicted []store.Evicted, cutoff time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range evicted {
		k := minuteOf(time.Unix(0, in.Start))
		if b := r.events[in.Name]; b != nil {
			if b.dec(k); len(b) == 0 {
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

func (a *appAgg) uncount(id int, label string, k minute) {
	delete(a.counted, id)
	cs := a.labels[label]
	if cs == nil {
		return
	}
	cs.total--
	cs.bins.dec(k)
	if cs.total <= 0 {
		delete(a.labels, label)
	}
}

// AddDiagnosis counts (or re-counts) one diagnosis for app in the
// breakdown and cause-trend counters. A symptom already counted has its
// label replaced — the later diagnosis saw at least as much evidence
// (seed-then-drain ordering). Both the startup seed and the server's
// streaming fan-out count through it; it is safe to call concurrently,
// and the seed counts on the workers that diagnose.
func (r *Rollup) AddDiagnosis(app string, d engine.Diagnosis) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.app(app)
	id := d.Symptom.ID
	k := minuteOf(d.Symptom.Start)
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
		cs = &causeSeries{bins: bins{}}
		a.labels[label] = cs
	}
	cs.total++
	cs.bins[k]++
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
	var fromKey minute
	if windowed {
		fromKey = minuteOf(from)
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
						n += int(c)
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
		if windowed && minuteOf(d.Symptom.Start) < fromKey {
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
	for m, n := range r.events[name] {
		k := m.unix()
		if k < fromSec || k > toSec {
			continue
		}
		if i := int((k - fromSec) / binSec); i >= 0 && i < len(points) {
			points[i].Count += int(n)
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
	idx := func(m minute) int {
		if k := m.unix(); k >= fromSec {
			return int((k - fromSec) / binSec)
		}
		return -1
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	a := r.apps[app]
	if a != nil {
		if cs := a.labels[label]; cs != nil {
			for k, n := range cs.bins {
				if i := idx(k); i >= 0 && i < len(points) {
					points[i].Count += int(n)
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
		if i := idx(minuteOf(d.Symptom.Start)); i >= 0 && i < len(points) {
			points[i].Count++
		}
	}
	return points
}
