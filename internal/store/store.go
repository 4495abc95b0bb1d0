// Package store implements the event store behind the G-RCA Data
// Collector. Normalized event instances are inserted as data is ingested
// and queried by the RCA engine by event name, time window, and location —
// the access pattern of the paper's "database tables" (§II-A) without the
// external database dependency.
//
// Instances are indexed per event name and kept sorted by start time
// (out-of-order arrivals wait in a tail that the next read merges in); a
// per-name maximum-duration bound turns interval-overlap queries into two
// binary searches plus a bounded scan.
package store

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/obs"
)

// Pipeline-health metrics (see internal/obs): the engine's evidence
// search is store-bound, so query volume, window width, and result sizes
// are the first numbers to read when diagnosis latency drifts.
var (
	mAdds        = obs.GetCounter("store.adds")
	mQueries     = obs.GetCounter("store.queries")
	mQueryWindow = obs.GetHistogram("store.query.window.seconds",
		[]float64{1, 5, 10, 30, 60, 120, 300, 600, 1800, 3600, 7200, 21600, 86400})
	mQueryResults  = obs.GetHistogram("store.query.results", obs.SizeBuckets)
	mLazyResorts   = obs.GetCounter("store.lazy.resorts")
	mResortMoved   = obs.GetCounter("store.lazy.resort.moved")
	mQueryScanSkip = obs.GetCounter("store.query.scanned.nonoverlap")
	mEvicted       = obs.GetCounter("store.evicted")
	mEvictions     = obs.GetCounter("store.evictions")
)

// nameIndex holds one event name's instances. instances[:sorted] is in
// Start order, equal Starts in insertion order; instances[sorted:] is the
// unsettled tail — every Put since one arrived behind the prefix's last
// Start — in insertion order. Everything in the prefix was inserted
// before anything in the tail, so settling is a stable sort of the tail
// and a merge, and equals a stable sort of the whole index.
type nameIndex struct {
	instances []*event.Instance
	sorted    int
	maxDur    time.Duration
}

func (idx *nameIndex) add(in *event.Instance) {
	n := len(idx.instances)
	if idx.sorted == n && (n == 0 || !idx.instances[n-1].Start.After(in.Start)) {
		idx.sorted++
	}
	idx.instances = append(idx.instances, in)
	if d := in.Duration(); d > idx.maxDur {
		idx.maxDur = d
	}
}

func (idx *nameIndex) settled() bool { return idx.sorted == len(idx.instances) }

// settle merges the tail into the prefix from the back, so it rewrites
// the tail and the prefix elements that start after the tail's earliest
// — never the part of the index the tail does not reach.
func (idx *nameIndex) settle() {
	if idx.settled() {
		return
	}
	ins := idx.instances
	tail := append([]*event.Instance(nil), ins[idx.sorted:]...)
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].Start.Before(tail[j].Start) })
	i, k := idx.sorted-1, len(ins)-1
	for j := len(tail) - 1; j >= 0; k-- {
		if i >= 0 && ins[i].Start.After(tail[j].Start) {
			ins[k] = ins[i]
			i--
		} else {
			ins[k] = tail[j]
			j--
		}
	}
	mLazyResorts.Inc()
	mResortMoved.Add(int64(len(ins) - 1 - k))
	idx.sorted = len(ins)
}

// Memory is the single-lock in-memory event store. It is safe for
// concurrent use, and reads run under a shared lock so that diagnosis can
// fan out across goroutines. Reads may trigger a lazy settle after a
// batch of out-of-order writes; a read racing such a write may observe
// that batch partially, so run bulk analysis after ingestion settles (the
// normal collector → engine phasing).
type Memory struct {
	mu     sync.RWMutex
	byName map[string]*nameIndex
	// byID[i] holds the instance with ID base+i; a nil entry is an
	// evicted instance (a tombstone — IDs are never reused). Leading
	// tombstones are trimmed by advancing base.
	byID []*event.Instance
	base int
	live int
	// first/last maintain the store-wide time span incrementally so Span
	// is O(1) instead of a full scan under the read lock.
	first, last time.Time

	// retention, when positive, bounds the store's look-back window:
	// once the span exceeds retention (plus a 25% slack so eviction runs
	// in amortized batches rather than per insert), instances whose End
	// falls before last−retention are evicted.
	retention time.Duration

	// onAppend hooks are invoked for every stored instance, under the
	// write lock, in registration order; they must be fast and must not
	// call back into the store. The WAL records instances here; the
	// serving rollups maintain their aggregates here.
	onAppend []func(*event.Instance)
	// onEvict hooks are invoked after a retention eviction, outside the
	// lock, with the evicted instances and the cutoff applied.
	onEvict []func(evicted []*event.Instance, cutoff time.Time)
}

// New returns an empty store.
func New() *Memory {
	return &Memory{byName: map[string]*nameIndex{}}
}

// OnAppend registers fn to observe every stored instance. Hooks
// accumulate and run in registration order. Each is called synchronously
// under the store's write lock, so it must be cheap and must not call
// back into the store (enqueueing for a background writer is the
// intended use). Register hooks before concurrent use.
func (s *Memory) OnAppend(fn func(*event.Instance)) { s.onAppend = append(s.onAppend, fn) }

// OnEvict registers fn to run after each retention eviction, outside the
// store lock, with the evicted instances and the cutoff applied. Hooks
// accumulate and run in registration order. Snapshot/compaction
// coordination and rollup decrements hang off this hook. Register hooks
// before concurrent use.
func (s *Memory) OnEvict(fn func(evicted []*event.Instance, cutoff time.Time)) {
	s.onEvict = append(s.onEvict, fn)
}

// SetRetention bounds the store's look-back window: instances whose End
// falls more than d before the latest stored End are evicted, amortized
// over inserts. Zero disables eviction.
func (s *Memory) SetRetention(d time.Duration) {
	s.mu.Lock()
	s.retention = d
	s.mu.Unlock()
}

// Retention returns the configured look-back window (zero = unbounded).
func (s *Memory) Retention() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.retention
}

// Add inserts a copy of in, assigns it a unique ID, and returns a pointer
// to the stored instance.
func (s *Memory) Add(in event.Instance) *event.Instance {
	s.mu.Lock()
	stored := s.addLocked(in)
	gone, cutoff := s.maybeEvictLocked()
	cbs := s.onEvict
	s.mu.Unlock()
	if len(gone) > 0 {
		for _, cb := range cbs {
			cb(gone, cutoff)
		}
	}
	return stored
}

func (s *Memory) addLocked(in event.Instance) *event.Instance {
	in.ID = s.base + len(s.byID)
	stored, _ := s.putLocked(in)
	return stored
}

// Put inserts a copy of in at its pre-assigned ID and returns a pointer
// to the stored instance. IDs are assigned externally (by the server's
// admission, or WAL replay), so the sequence may be sparse: a forward gap
// leaves unassigned slots that behave exactly like tombstones. A Put
// below the current frontier fills the matching empty slot; reusing an
// occupied ID is an error.
func (s *Memory) Put(in event.Instance) (*event.Instance, error) {
	s.mu.Lock()
	stored, err := s.putLocked(in)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	gone, cutoff := s.maybeEvictLocked()
	cbs := s.onEvict
	s.mu.Unlock()
	if len(gone) > 0 {
		for _, cb := range cbs {
			cb(gone, cutoff)
		}
	}
	return stored, nil
}

// PutAll inserts every instance at its pre-assigned ID, in order, under a
// single lock acquisition. It stops at the first bad ID.
func (s *Memory) PutAll(ins []event.Instance) error {
	s.mu.Lock()
	for _, in := range ins {
		if _, err := s.putLocked(in); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	gone, cutoff := s.maybeEvictLocked()
	cbs := s.onEvict
	s.mu.Unlock()
	if len(gone) > 0 {
		for _, cb := range cbs {
			cb(gone, cutoff)
		}
	}
	return nil
}

func (s *Memory) putLocked(in event.Instance) (*event.Instance, error) {
	mAdds.Inc()
	next := s.base + len(s.byID)
	stored := &in
	switch {
	case len(s.byID) == 0 && in.ID >= next:
		// Empty (or fully trimmed) store: jump the base forward so a
		// first ID that is large doesn't allocate a nil prefix.
		s.base = in.ID
		s.byID = append(s.byID, stored)
	case in.ID >= next:
		// Forward gap: leave the IDs in between as unassigned
		// (tombstone-equivalent) slots.
		for next < in.ID {
			s.byID = append(s.byID, nil)
			next++
		}
		s.byID = append(s.byID, stored)
	case in.ID >= s.base:
		if s.byID[in.ID-s.base] != nil {
			return nil, fmt.Errorf("store: Put reuses occupied ID %d", in.ID)
		}
		s.byID[in.ID-s.base] = stored
	default:
		return nil, fmt.Errorf("store: Put ID %d below store base %d", in.ID, s.base)
	}
	s.live++
	idx := s.byName[in.Name]
	if idx == nil {
		idx = &nameIndex{}
		s.byName[in.Name] = idx
	}
	idx.add(stored)
	if s.live == 1 || in.Start.Before(s.first) {
		s.first = in.Start
	}
	if s.live == 1 || in.End.After(s.last) {
		s.last = in.End
	}
	for _, fn := range s.onAppend {
		fn(stored)
	}
	return stored, nil
}

// AddAll inserts every instance, in order, under a single lock acquisition.
func (s *Memory) AddAll(ins []event.Instance) {
	s.mu.Lock()
	for _, in := range ins {
		s.addLocked(in)
	}
	gone, cutoff := s.maybeEvictLocked()
	cbs := s.onEvict
	s.mu.Unlock()
	if len(gone) > 0 {
		for _, cb := range cbs {
			cb(gone, cutoff)
		}
	}
}

// Get returns the instance with the given ID. Evicted IDs report not
// found, exactly like IDs never assigned.
func (s *Memory) Get(id int) (*event.Instance, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := id - s.base
	if i < 0 || i >= len(s.byID) || s.byID[i] == nil {
		return nil, false
	}
	return s.byID[i], true
}

// Len returns the number of live (non-evicted) stored instances.
func (s *Memory) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// NextID returns the ID the next inserted instance will receive. IDs are
// assigned sequentially and never reused, so NextID−1 identifies the most
// recent insert even across evictions.
func (s *Memory) NextID() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base + len(s.byID)
}

// Count returns the number of instances of the named event.
func (s *Memory) Count(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if idx := s.byName[name]; idx != nil {
		return len(idx.instances)
	}
	return 0
}

// Names returns all event names present, sorted.
func (s *Memory) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byName))
	for n := range s.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query returns the instances of the named event whose [Start, End]
// interval overlaps [from, to] (inclusive on both ends), ordered by start
// time. The returned slice is freshly allocated.
func (s *Memory) Query(name string, from, to time.Time) []*event.Instance {
	return s.QueryFunc(name, from, to, nil)
}

// QueryFunc is Query with an optional location/content filter applied to
// each candidate. A nil filter accepts everything.
func (s *Memory) QueryFunc(name string, from, to time.Time, keep func(*event.Instance) bool) []*event.Instance {
	mQueries.Inc()
	s.mu.RLock()
	idx := s.byName[name]
	if idx == nil || to.Before(from) {
		s.mu.RUnlock()
		return nil
	}
	mQueryWindow.ObserveDuration(to.Sub(from))
	if !idx.settled() {
		// Upgrade: drop the read lock and redo the whole read under the
		// write lock. Resuming on RLock after a write-locked settle would
		// trust state observed before the upgrade — the PR 3 store race,
		// now rejected by the deferunlock/lockorder analyzers.
		s.mu.RUnlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		if idx = s.byName[name]; idx == nil {
			return nil // evicted between the locks
		}
		idx.settle()
		return queryScan(idx, from, to, keep)
	}
	defer s.mu.RUnlock()
	return queryScan(idx, from, to, keep)
}

// queryScan performs the window scan over a settled index; the caller
// holds s.mu in either mode.
func queryScan(idx *nameIndex, from, to time.Time, keep func(*event.Instance) bool) []*event.Instance {
	ins := idx.instances
	// First candidate: an overlapping instance has Start >= from-maxDur.
	lowBound := from.Add(-idx.maxDur)
	lo := sort.Search(len(ins), func(i int) bool { return !ins[i].Start.Before(lowBound) })
	// Last candidate: Start <= to.
	hi := sort.Search(len(ins), func(i int) bool { return ins[i].Start.After(to) })
	var out []*event.Instance
	skipped := int64(0)
	for _, in := range ins[lo:hi] {
		if in.End.Before(from) {
			skipped++
			continue
		}
		if keep == nil || keep(in) {
			out = append(out, in)
		}
	}
	if skipped > 0 {
		mQueryScanSkip.Add(skipped)
	}
	mQueryResults.Observe(float64(len(out)))
	return out
}

// QueryAt returns the instances of the named event at the exact location,
// overlapping the window. This is the common engine fast path for
// element-level joins.
func (s *Memory) QueryAt(name string, from, to time.Time, loc locus.Location) []*event.Instance {
	return s.QueryFunc(name, from, to, func(in *event.Instance) bool { return in.Loc == loc })
}

// All returns every instance of the named event ordered by start time.
func (s *Memory) All(name string) []*event.Instance {
	s.mu.RLock()
	idx := s.byName[name]
	if idx == nil {
		s.mu.RUnlock()
		return nil
	}
	if !idx.settled() {
		// Same upgrade discipline as QueryFunc: redo the read under the
		// write lock rather than settling and resuming on RLock.
		s.mu.RUnlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		if idx = s.byName[name]; idx == nil {
			return nil
		}
		idx.settle()
		return append([]*event.Instance(nil), idx.instances...)
	}
	defer s.mu.RUnlock()
	return append([]*event.Instance(nil), idx.instances...)
}

// ScanAfter returns up to limit live instances with ID > after, in ID
// (insertion) order, optionally restricted to one event name ("" matches
// every name). more reports whether further matching instances remain —
// the caller resumes with after = out[len(out)-1].ID. This is the
// pagination primitive behind the HTTP list endpoints: a bounded slice
// per call instead of one unbounded array for the whole store.
func (s *Memory) ScanAfter(name string, after, limit int) (out []*event.Instance, more bool) {
	if limit <= 0 {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := after + 1 - s.base
	if i < 0 {
		i = 0
	}
	for ; i < len(s.byID); i++ {
		in := s.byID[i]
		if in == nil || (name != "" && in.Name != name) {
			continue
		}
		if len(out) == limit {
			return out, true
		}
		out = append(out, in)
	}
	return out, false
}

// Span returns the earliest start and latest end across the whole store;
// ok is false for an empty store. The bounds are maintained incrementally
// on insert and recomputed on eviction, so this is O(1).
func (s *Memory) Span() (first, last time.Time, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.live == 0 {
		return time.Time{}, time.Time{}, false
	}
	return s.first, s.last, true
}

// ---------------------------------------------------------------------
// Retention eviction
// ---------------------------------------------------------------------

// EvictBefore removes every instance whose End falls strictly before
// cutoff and returns how many were evicted. Evicted IDs stay tombstoned
// (Get reports not found; later IDs are unchanged) and the Span bounds are
// recomputed so they stay exact. The registered OnEvict hooks, if any, run
// after the lock is released.
func (s *Memory) EvictBefore(cutoff time.Time) int {
	s.mu.Lock()
	gone := s.evictLocked(cutoff)
	cbs := s.onEvict
	s.mu.Unlock()
	if len(gone) > 0 {
		for _, cb := range cbs {
			cb(gone, cutoff)
		}
	}
	return len(gone)
}

// maybeEvictLocked applies the retention window with 25% slack so the
// O(n) sweep amortizes over many inserts.
func (s *Memory) maybeEvictLocked() (evicted []*event.Instance, cutoff time.Time) {
	if s.retention <= 0 || s.live == 0 {
		return nil, time.Time{}
	}
	if s.last.Sub(s.first) <= s.retention+s.retention/4 {
		return nil, time.Time{}
	}
	cutoff = s.last.Add(-s.retention)
	return s.evictLocked(cutoff), cutoff
}

func (s *Memory) evictLocked(cutoff time.Time) []*event.Instance {
	var gone []*event.Instance
	for i, in := range s.byID {
		if in != nil && in.End.Before(cutoff) {
			gone = append(gone, in)
			s.byID[i] = nil
		}
	}
	evicted := len(gone)
	if evicted == 0 {
		return nil
	}
	s.live -= evicted
	mEvicted.Add(int64(evicted))
	mEvictions.Inc()
	// Filter each name index in place, settled first so that what is kept
	// is all prefix. maxDur is left as an upper bound: a too-wide query
	// bound only costs extra scan, never correctness.
	for name, idx := range s.byName {
		idx.settle()
		kept := idx.instances[:0]
		for _, in := range idx.instances {
			if !in.End.Before(cutoff) {
				kept = append(kept, in)
			}
		}
		for i := len(kept); i < len(idx.instances); i++ {
			idx.instances[i] = nil
		}
		if len(kept) == 0 {
			delete(s.byName, name)
			continue
		}
		idx.instances, idx.sorted = kept, len(kept)
	}
	// Trim leading tombstones, advancing the ID base; copy so the evicted
	// prefix of the backing array is actually released.
	trim := 0
	for trim < len(s.byID) && s.byID[trim] == nil {
		trim++
	}
	if trim > 0 {
		s.byID = append([]*event.Instance(nil), s.byID[trim:]...)
		s.base += trim
	}
	// Recompute the span bounds. Eviction is keyed on End < cutoff, so
	// last never shrinks, but first can.
	if s.live == 0 {
		s.first, s.last = time.Time{}, time.Time{}
		return gone
	}
	first := time.Time{}
	for _, in := range s.byID {
		if in != nil && (first.IsZero() || in.Start.Before(first)) {
			first = in.Start
		}
	}
	s.first = first
	return gone
}

// ---------------------------------------------------------------------
// Cuts and restore (snapshot support)
// ---------------------------------------------------------------------

// Cut is one consistent view of the store's ID space: the bounds, live
// counts and instances it reports all belong to the same instant even
// with concurrent writers. It is valid only inside the function passed to
// Memory.Cut, which holds the store's read lock for its duration — so the
// function must not call back into the store, and must not retain or
// mutate the instances it is shown.
type Cut struct{ s *Memory }

// Cut runs fn over one consistent cut of the store. Incremental
// snapshots use it to decide, per sealed ID range, whether anything was
// evicted since the range was last written, and to stream only the
// ranges that changed.
func (s *Memory) Cut(fn func(Cut) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return fn(Cut{s})
}

// Bounds returns the cut's ID bounds — base, the first slot, and next,
// the ID the next insert will receive; base..next−1 spans the live IDs
// plus any interior tombstones — and the live instance count.
func (c Cut) Bounds() (base, next, live int) {
	return c.s.base, c.s.base + len(c.s.byID), c.s.live
}

// slots returns the ID slots of [lo, hi), clamped to the store's bounds.
func (c Cut) slots(lo, hi int) []*event.Instance {
	lo, hi = max(lo-c.s.base, 0), min(hi-c.s.base, len(c.s.byID))
	if lo >= hi {
		return nil
	}
	return c.s.byID[lo:hi]
}

// Count returns how many live instances carry an ID in [lo, hi).
func (c Cut) Count(lo, hi int) int {
	n := 0
	for _, in := range c.slots(lo, hi) {
		if in != nil {
			n++
		}
	}
	return n
}

// Each calls fn for every live instance with an ID in [lo, hi), in ID
// order, stopping at the first error.
func (c Cut) Each(lo, hi int, fn func(*event.Instance) error) error {
	for _, in := range c.slots(lo, hi) {
		if in != nil {
			if err := fn(in); err != nil {
				return err
			}
		}
	}
	return nil
}

// SnapshotTo streams the whole store through one Cut: header runs once
// with the ID bounds and live count, then each runs per live
// instance in ID order. The callbacks are bound by Cut's rules.
func (s *Memory) SnapshotTo(header func(base, next, count int) error, each func(*event.Instance) error) error {
	return s.Cut(func(c Cut) error {
		base, next, live := c.Bounds()
		if err := header(base, next, live); err != nil {
			return err
		}
		return c.Each(base, next, each)
	})
}

// Restore rebuilds a dumped state into an empty store: each instance is
// placed at its recorded ID, interior gaps stay tombstoned, and the next
// insert receives ID next. It is the snapshot-recovery path; restoring
// into a non-empty store is an error.
func (s *Memory) Restore(base, next int, ins []event.Instance) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restoreLocked(base, next, ins)
}

// Replace makes a dumped state the store's whole content, whatever it
// held: a replica loading a checkpoint its primary shipped over a store
// it had been filling itself. Hooks and retention stay; like Restore it
// runs no hook, so whoever derives state from the store's content
// rebuilds it.
func (s *Memory) Replace(base, next int, ins []event.Instance) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byName, s.byID, s.base, s.live = map[string]*nameIndex{}, nil, 0, 0
	s.first, s.last = time.Time{}, time.Time{}
	return s.restoreLocked(base, next, ins)
}

func (s *Memory) restoreLocked(base, next int, ins []event.Instance) error {
	if len(s.byID) != 0 || s.base != 0 {
		return fmt.Errorf("store: Restore into a non-empty store")
	}
	if base < 0 || next < base || len(ins) > next-base {
		return fmt.Errorf("store: Restore bounds [%d,%d) cannot hold %d instances", base, next, len(ins))
	}
	s.base = base
	s.byID = make([]*event.Instance, next-base)
	prev := base - 1
	for _, in := range ins {
		if in.ID <= prev || in.ID >= next {
			return fmt.Errorf("store: Restore instance ID %d out of order for bounds [%d,%d)", in.ID, base, next)
		}
		prev = in.ID
		stored := in
		s.byID[in.ID-base] = &stored
		s.live++
		idx := s.byName[in.Name]
		if idx == nil {
			idx = &nameIndex{}
			s.byName[in.Name] = idx
		}
		idx.add(&stored)
		if s.live == 1 || in.Start.Before(s.first) {
			s.first = in.Start
		}
		if s.live == 1 || in.End.After(s.last) {
			s.last = in.End
		}
	}
	return nil
}
