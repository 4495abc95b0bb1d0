// Package store implements the event store behind the G-RCA Data
// Collector. Normalized event instances are inserted as data is ingested
// and queried by the RCA engine by event name, time window, and location —
// the access pattern of the paper's "database tables" (§II-A) without the
// external database dependency.
//
// A stored event is no heap object of its own. It is a pointer-free
// 16-byte slot — its start as int64 nanoseconds, its name and location as
// IDs into per-store intern tables — and a 4-byte row in its name's
// index: 20 bytes for an instant without attributes. Two columns beside
// the slots hold the rest, and a chunk maps each only once it needs it:
// an 8-byte duration (End − Start) once the chunk holds an event whose
// End is not its Start, and a 4-byte reference to an attribute section
// once it holds one with attributes. The sections themselves are packed
// into the chunk's fixed-size heap slabs, which are only ever appended
// to. Rows live in ID-indexed chunks; every read materializes fresh
// event.Instance copies that the caller owns, so identity is the ID,
// never the pointer — bar the attributes, which view a slab's bytes,
// immutable once written.
//
// Each event name keeps an index of its rows sorted by start time, read
// from their slots (out-of-order arrivals wait in a tail that the next
// read merges in, in place); a per-name maximum-duration bound turns
// interval-overlap queries into a binary search, a gallop from it and a
// bounded scan.
// Eviction filters an index without merging its tail, and a restore
// (Replace) takes its instances a batch at a time, so neither copies the
// store or an index onto the heap.
//
// The slot chunks, the duration and attribute columns and the index rows
// hold no pointer, so they live outside the Go heap, in pages the store's
// arena maps (pages.go) and alone owns: eviction and an emptied name
// unmap what they drop, Replace (a checkpoint install) unmaps everything,
// and a store dropped whole is unmapped by the arena's finalizer
// (TestPagesReleased). No pointer into those pages leaves the package,
// since every read copies them; a slab is dropped with its chunk, and a
// reader still holding attributes keeps that one slab alive. The race
// detector does not see the pages themselves; every touch of them goes
// through heap fields read under mu, which it does see.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
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

// slot is a stored event's fixed part but its attributes and its
// duration. name and loc index the store's intern tables; name 0 marks an
// empty slot (never assigned, or evicted). It holds no pointer, so the
// garbage collector never scans a chunk.
type slot struct {
	start     int64 // Unix nanoseconds
	name, loc uint32
}

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type chunk [chunkSize]slot

// durColumn is a chunk's durations, a row each: End − Start as uint64
// nanoseconds, modulo 2^64, so that every pair of int64 instants round-
// trips. A chunk maps it only once it holds a row whose End is not its
// Start; a row of a chunk without one is an instant, and so is an empty
// row of a chunk with one (its entry is 0).
type durColumn [chunkSize]uint64

// attrColumn is a chunk's attribute references, a row each: 0 for no
// attributes, else the slab number plus one above slabBits and the
// offset of the row's entry in that slab below them.
type attrColumn [chunkSize]uint32

const (
	slabBits = 12
	slabSize = 1 << slabBits
	slabMask = slabSize - 1
	// maxSlabs is how many slabs a reference can name. A put starts at
	// most one, so a chunk's rows need at most chunkSize; only IDs
	// evicted and put again a thousand times over come near it.
	maxSlabs = 1<<(32-slabBits) - 1
)

// attrChunk is one chunk's attributes: its column, mapped (nil until the
// chunk holds an event with any), and the heap slabs the column points
// into. A slab holds entries uvarint(len) | section, is slabSize bytes or
// one entry that would not fit in one, and is only appended to, inside
// its capacity: a byte once written never changes, so a read can hand out
// the section without copying it. An evicted row only loses its
// reference; its slab goes with the chunk.
type attrChunk struct {
	col   *attrColumn
	slabs [][]byte
}

// put places at's section in the chunk's last slab, or in a new one, and
// points row j at it.
func (ac *attrChunk) put(a *arena, j row, at event.Attrs) {
	if ac.col == nil {
		ac.col = newMapped[attrColumn](a)
	}
	var prefix [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(prefix[:], uint64(at.SectionLen()))
	need := m + at.SectionLen()
	k := len(ac.slabs) - 1
	if k < 0 || cap(ac.slabs[k])-len(ac.slabs[k]) < need {
		if k+1 == maxSlabs {
			panic("store: a chunk's attribute slabs outnumber its references")
		}
		ac.slabs = append(ac.slabs, a.newSlab(max(slabSize, need)))
		k++
	}
	off := len(ac.slabs[k])
	ac.slabs[k] = at.AppendSection(append(ac.slabs[k], prefix[:m]...))
	ac.col[j] = uint32(k+1)<<slabBits | uint32(off)
}

// get returns row j's attributes, viewing its slab.
func (ac *attrChunk) get(j row) event.Attrs {
	if ac.col == nil || ac.col[j] == 0 {
		return event.Attrs{}
	}
	ref := ac.col[j]
	b := ac.slabs[ref>>slabBits-1][ref&slabMask:]
	n, k := binary.Uvarint(b)
	return event.AdoptSection(view(b[k : k+int(n)]))
}

// free unmaps the column and drops the slabs.
func (ac *attrChunk) free(a *arena) {
	if ac.col != nil {
		freeMapped(a, ac.col)
		a.dropSlabs(ac.slabs)
	}
	*ac = attrChunk{}
}

// A row is a slot's position: its ID minus the store's org. Indexes hold
// rows, not IDs, at half the size; eviction rebases them when org moves.
type row = uint32

// nameIndex holds one event name's rows. [:sorted] is in Start order,
// equal Starts in insertion order; [sorted:] is the unsettled tail —
// every Put since one arrived behind the prefix's last Start — in
// insertion order. Everything in the prefix was inserted before anything
// in the tail, so settling is a stable sort of the tail and a merge, and
// equals a stable sort of the whole index. Eviction drops rows from both
// parts and keeps the order of the rest, so all three properties survive
// it unsettled. A row's start is read from its slot (byStart): the index
// keeps no copy of it.
type nameIndex struct {
	rows   []row
	sorted int
	// maxDur bounds every duration the index has held, so that a query
	// finds an interval that starts before its window.
	maxDur uint64
}

func (idx *nameIndex) add(a *arena, chunks []*chunk, r row, start int64, dur uint64) {
	n := len(idx.rows)
	if n == cap(idx.rows) {
		a.growColumns(idx)
	}
	if idx.sorted == n && (n == 0 || idx.by(chunks).start(n-1) <= start) {
		idx.sorted++
	}
	idx.rows = idx.rows[:n+1]
	idx.rows[n] = r
	idx.maxDur = max(idx.maxDur, dur)
}

func (idx *nameIndex) settled() bool { return idx.sorted == len(idx.rows) }

// by is the index's rows seen through the chunk table that holds their
// slots.
func (idx *nameIndex) by(chunks []*chunk) byStart { return byStart{idx.rows, chunks} }

// settle merges the tail into the prefix in place, allocating nothing
// whatever the tail's length: a stable sort of the tail, then a rotation
// merge with the prefix rows that start after the tail's earliest — never
// the part of the index the tail does not reach.
func (idx *nameIndex) settle(chunks []*chunk) {
	if idx.settled() {
		return
	}
	c := idx.by(chunks)
	mid, n := idx.sorted, len(idx.rows)
	c.sort(mid, n)
	// lo is the first prefix row starting after the tail's earliest: one
	// tied with it was inserted first, so it stays in front.
	lo := c.search(0, mid, c.start(mid), true)
	c.merge(lo, mid, n)
	mLazyResorts.Inc()
	mResortMoved.Add(int64(n - lo))
	idx.sorted = n
}

// byStart is an index's rows ordered by their slots' starts, read through
// the chunk table. A value, not a closure, so that a read or a settle
// allocates nothing. Its sort and merge are stable and in place —
// insertion-sorted blocks merged by rotation (the scheme of sort.Stable,
// without the interface value that would cost an allocation per settle).
type byStart struct {
	rows   []row
	chunks []*chunk
}

// start is the start of the i-th row.
func (c byStart) start(i int) int64 {
	r := c.rows[i]
	return c.chunks[r>>chunkBits][r&chunkMask].start
}

// search returns the first i in [a, b) whose row starts at t or later —
// after t, when after is set — and b when none does. [a, b) must be
// sorted.
func (c byStart) search(a, b int, t int64, after bool) int {
	for a < b {
		h := int(uint(a+b) >> 1)
		if s := c.start(h); s < t || after && s == t {
			a = h + 1
		} else {
			b = h
		}
	}
	return a
}

// gallop is search(a, b, t, true) for a t whose answer lies near a: it
// probes a, a+1, a+3, a+7, … until a row starts after t, then searches
// the last stretch, so a short window reads only the rows and slots
// around a, which its first binary search has just brought in.
func (c byStart) gallop(a, b int, t int64) int {
	hi := a
	for step := 1; hi < b && c.start(hi) <= t; step *= 2 {
		a, hi = hi+1, hi+step
	}
	return c.search(a, min(hi, b), t, true)
}

// sort stable-sorts [a, b) by start.
func (c byStart) sort(a, b int) {
	const block = 20
	for i := a; i < b; i += block {
		c.insertionSort(i, min(i+block, b))
	}
	for size := block; size < b-a; size *= 2 {
		for i := a; i+size < b; i += 2 * size {
			c.merge(i, i+size, min(i+2*size, b))
		}
	}
}

func (c byStart) insertionSort(a, b int) {
	for i := a + 1; i < b; i++ {
		r, s := c.rows[i], c.start(i)
		j := i
		for ; j > a && c.start(j-1) > s; j-- {
			c.rows[j] = c.rows[j-1]
		}
		c.rows[j] = r
	}
}

// merge merges the sorted runs [a, m) and [m, b) stably: SymMerge (Kim and
// Kutzner), which splits both runs around a rotation and recurses on the
// halves, and moves a lone element straight to its place.
func (c byStart) merge(a, m, b int) {
	if a >= m || m >= b || c.start(m-1) <= c.start(m) {
		return // a run empty, or the two already in order
	}
	if m-a == 1 {
		// The first row of [m, b) not before row a: a goes just before it.
		c.rotate(a, m, c.search(m, b, c.start(a), false))
		return
	}
	if b-m == 1 {
		// The first row of [a, m) after row m: m goes just before it.
		c.rotate(c.search(a, m, c.start(m), true), m, b)
		return
	}
	mid := int(uint(a+b) >> 1)
	n := mid + m
	var start, r int
	if m > mid {
		start, r = n-b, mid
	} else {
		start, r = a, m
	}
	for p := n - 1; start < r; {
		h := int(uint(start+r) >> 1)
		if c.start(p-h) >= c.start(h) {
			start = h + 1
		} else {
			r = h
		}
	}
	end := n - start
	c.rotate(start, m, end)
	c.merge(a, start, mid)
	c.merge(mid, end, b)
}

// rotate swaps the blocks [a, m) and [m, b).
func (c byStart) rotate(a, m, b int) {
	if a >= m || m >= b {
		return
	}
	slices.Reverse(c.rows[a:m])
	slices.Reverse(c.rows[m:b])
	slices.Reverse(c.rows[a:b])
}

// nameEntry is one interned event name. It lives exactly as long as its
// index holds a row.
type nameEntry struct {
	name string
	idx  nameIndex
}

// locEntry is one interned location, with the count of live slots that
// reference it.
type locEntry struct {
	loc  locus.Location
	refs int
}

// Memory is the single-lock in-memory event store. It is safe for
// concurrent use, and reads run under a shared lock so that diagnosis can
// fan out across goroutines. Reads may trigger a lazy settle after a
// batch of out-of-order writes; a read racing such a write may observe
// that batch partially, so run bulk analysis after ingestion settles (the
// normal collector → engine phasing).
type Memory struct {
	mu sync.RWMutex
	// chunks[i][j] is the slot of row i·chunkSize + j, ID org + row; a
	// nil chunk is chunkSize empty slots. durs[i] holds the durations of
	// chunk i's rows, nil while they are all instants, and attrs[i] their
	// attributes. Chunks, duration and attribute columns and the name
	// indexes' rows are mapped from mem, which the store alone owns, and
	// mem counts the attribute slabs. IDs are never reused. base..next−1
	// is the ID range the store spans: leading empty slots are trimmed by
	// advancing base, and whole chunks below it dropped.
	chunks     []*chunk
	durs       []*durColumn
	attrs      []attrChunk
	mem        *arena
	org        int
	base, next int
	live       int

	// The intern tables. Entry 0 of each is unused, so that a zero slot
	// is an empty one; freed entries are recycled.
	names     []nameEntry
	nameIDs   map[string]uint32
	freeNames []uint32
	locs      []locEntry
	locIDs    map[locus.Location]uint32
	freeLocs  []uint32

	// first/last maintain the store-wide time span (Unix ns)
	// incrementally so Span is O(1) instead of a full scan under the read
	// lock.
	first, last int64

	// retention, when positive, bounds the store's look-back window:
	// once the span exceeds retention (plus a 25% slack so eviction runs
	// in amortized batches rather than per insert), instances whose End
	// falls before last−retention are evicted.
	retention time.Duration

	// onAppend hooks are invoked for every stored instance, under the
	// write lock, in registration order; they must be fast and must not
	// call back into the store. The WAL records instances here.
	onAppend []func(*event.Instance)
	// onEvict hooks are invoked after a retention eviction, outside the
	// lock, with what was evicted and the cutoff applied.
	onEvict []func(evicted []Evicted, cutoff time.Time)
}

// Evicted is what an evict hook is shown of an evicted event: its ID, its
// name and its start (Unix ns) — what un-counting it takes, at a quarter
// of a whole instance's bytes, since a sweep can evict a window's worth.
type Evicted struct {
	ID    int
	Name  string
	Start int64
}

// New returns an empty store.
func New() *Memory {
	s := &Memory{}
	s.reset()
	return s
}

// reset empties the store's content and unmaps its memory; hooks and
// retention stay.
func (s *Memory) reset() {
	if s.mem == nil {
		s.mem = newArena()
	}
	s.mem.freeAll()
	s.chunks, s.durs, s.attrs, s.org, s.base, s.next, s.live = nil, nil, nil, 0, 0, 0, 0
	s.names, s.nameIDs, s.freeNames = make([]nameEntry, 1), map[string]uint32{}, nil
	s.locs, s.locIDs, s.freeLocs = make([]locEntry, 1), map[locus.Location]uint32{}, nil
	s.first, s.last = 0, 0
}

// OnAppend registers fn to observe every stored instance. Hooks
// accumulate and run in registration order. Each is called synchronously
// under the store's write lock, so it must be cheap, must not call back
// into the store (enqueueing for a background writer is the intended
// use), and must not retain or mutate the instance it is shown. Register
// hooks before concurrent use.
func (s *Memory) OnAppend(fn func(*event.Instance)) { s.onAppend = append(s.onAppend, fn) }

// OnEvict registers fn to run after each retention eviction, outside the
// store lock, with the evicted events in ID order and the cutoff applied.
// Hooks accumulate and run in registration order. Snapshot/compaction
// coordination and rollup decrements hang off this hook. Register hooks
// before concurrent use.
func (s *Memory) OnEvict(fn func(evicted []Evicted, cutoff time.Time)) {
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

// Add stores in under the next ID and returns a copy of it, ID set. Its
// instants must lie between event.MinTime and event.MaxTime: every
// ingress bounds them, so Add panics on one that does not.
func (s *Memory) Add(in event.Instance) *event.Instance {
	if err := s.putEach(1, func(int) *event.Instance { in.ID = s.next; return &in }); err != nil {
		panic(fmt.Sprintf("store: Add: %v", err))
	}
	return &in
}

// Put stores in at its pre-assigned ID and returns a copy of it. IDs are
// assigned externally (by the server's admission, or WAL replay), so the
// sequence may be sparse: a forward gap leaves unassigned slots that
// behave exactly like evicted ones. A Put below the current frontier
// fills the matching empty slot; reusing an occupied ID is an error, and
// so is an instant outside event.MinTime..MaxTime (event.ErrTimeRange).
func (s *Memory) Put(in event.Instance) (*event.Instance, error) {
	if err := s.putEach(1, func(int) *event.Instance { return &in }); err != nil {
		return nil, err
	}
	return &in, nil
}

// PutAll is Put for every instance, in order, under a single lock
// acquisition, stopping at the first one Put would refuse. The append
// hooks see &ins[i]: the caller's batch is the put path's only
// per-event memory beside the slots.
func (s *Memory) PutAll(ins []event.Instance) error {
	return s.putEach(len(ins), func(i int) *event.Instance { return &ins[i] })
}

// eviction is one retention sweep, for the evict hooks.
type eviction struct {
	gone   []Evicted
	cutoff time.Time
}

// putEach puts the n instances next(0..n−1) returns, under one write
// lock. Retention applies after each, so the store ends up the same
// however the inserts were batched — a follower applying one event at a
// time evicts exactly what its primary did. The evict hooks run after
// the lock is released, one call per sweep, in order.
func (s *Memory) putEach(n int, next func(int) *event.Instance) error {
	var sweeps []eviction
	var err error
	s.mu.Lock()
	for i := 0; i < n && err == nil; i++ {
		if err = s.putLocked(next(i)); err == nil {
			if gone, cutoff := s.maybeEvictLocked(); len(gone) > 0 {
				sweeps = append(sweeps, eviction{gone, cutoff})
			}
		}
	}
	cbs := s.onEvict
	s.mu.Unlock()
	for _, e := range sweeps {
		for _, cb := range cbs {
			cb(e.gone, e.cutoff)
		}
	}
	return err
}

// nanos returns t as Unix nanoseconds, false when int64 cannot hold it.
func nanos(t time.Time) (int64, bool) {
	if t.Before(event.MinTime) || t.After(event.MaxTime) {
		return 0, false
	}
	return t.UnixNano(), true
}

func (s *Memory) putLocked(in *event.Instance) error {
	start, okS := nanos(in.Start)
	end, okE := nanos(in.End)
	id := in.ID
	if !okS || !okE {
		return fmt.Errorf("store: Put ID %d: %w", id, event.ErrTimeRange)
	}
	switch {
	case id >= s.next && s.base == s.next:
		// Empty (or fully trimmed) store: jump the range forward so a
		// first ID that is large doesn't allocate an empty prefix.
		s.dropChunks(len(s.chunks))
		s.org, s.base = id&^chunkMask, id
	case id >= s.base+math.MaxUint32-chunkSize:
		return fmt.Errorf("store: Put ID %d lies 2^32 or more above the store base %d", id, s.base)
	case id >= s.next:
		// Forward gap: the IDs in between stay unassigned (empty) slots.
	case id >= s.base:
		if _, ok := s.lookup(id); ok {
			return fmt.Errorf("store: Put reuses occupied ID %d", id)
		}
	default:
		return fmt.Errorf("store: Put ID %d below store base %d", id, s.base)
	}
	s.next = max(s.next, id+1)
	mAdds.Inc()
	s.place(id, start, end, in)
	for _, fn := range s.onAppend {
		fn(in)
	}
	return nil
}

// place writes in's row at id and indexes it; the caller has checked the
// ID and converted the instants.
func (s *Memory) place(id int, start, end int64, in *event.Instance) {
	r := row(id - s.org)
	i, j := int(r>>chunkBits), r&chunkMask
	for len(s.chunks) <= i {
		s.chunks, s.durs, s.attrs = append(s.chunks, nil), append(s.durs, nil), append(s.attrs, attrChunk{})
	}
	if s.chunks[i] == nil {
		s.chunks[i] = newMapped[chunk](s.mem)
	}
	// An empty row's duration is 0 (eviction zeroes it), so an instant
	// writes none.
	dur := uint64(end) - uint64(start)
	if dur != 0 {
		if s.durs[i] == nil {
			s.durs[i] = newMapped[durColumn](s.mem)
		}
		s.durs[i][j] = dur
	}
	if in.Attrs != (event.Attrs{}) {
		s.attrs[i].put(s.mem, j, in.Attrs)
	}
	nid := s.internName(in.Name)
	s.chunks[i][j] = slot{start: start, name: nid, loc: s.internLoc(in.Loc)}
	s.names[nid].idx.add(s.mem, s.chunks, r, start, dur)
	s.live++
	if s.live == 1 || start < s.first {
		s.first = start
	}
	if s.live == 1 || end > s.last {
		s.last = end
	}
}

// dropChunks unmaps the first n chunks, with their duration and
// attribute columns and their slabs, and drops them from the tables — by
// copying, so that the dropped prefix is released — and org moves past
// them.
func (s *Memory) dropChunks(n int) {
	if n == 0 {
		return
	}
	for i, c := range s.chunks[:n] {
		if c != nil {
			freeMapped(s.mem, c)
		}
		if d := s.durs[i]; d != nil {
			freeMapped(s.mem, d)
		}
		s.attrs[i].free(s.mem)
	}
	s.chunks = append([]*chunk(nil), s.chunks[n:]...)
	s.durs = append([]*durColumn(nil), s.durs[n:]...)
	s.attrs = append([]attrChunk(nil), s.attrs[n:]...)
	s.org += n << chunkBits
}

// slot returns the slot of a row the store holds.
func (s *Memory) slot(r row) *slot { return &s.chunks[r>>chunkBits][r&chunkMask] }

// end returns the End (Unix ns) of a row the store holds: its start, for
// a chunk without durations.
func (s *Memory) end(r row) int64 {
	start := s.slot(r).start
	if d := s.durs[r>>chunkBits]; d != nil {
		return int64(uint64(start) + d[r&chunkMask])
	}
	return start
}

// lookup returns the row of an ID, false when the store holds no event
// there.
func (s *Memory) lookup(id int) (row, bool) {
	off := id - s.org
	if off < 0 || off>>chunkBits >= len(s.chunks) {
		return 0, false
	}
	c := s.chunks[off>>chunkBits]
	if c == nil || c[off&chunkMask].name == 0 {
		return 0, false
	}
	return row(off), true
}

// internName returns name's intern ID, entering it (with a copy of the
// string, so that no caller's buffer is pinned) when it is new.
func (s *Memory) internName(name string) uint32 {
	if id, ok := s.nameIDs[name]; ok {
		return id
	}
	e := nameEntry{name: strings.Clone(name)}
	var id uint32
	if n := len(s.freeNames); n > 0 {
		id, s.freeNames = s.freeNames[n-1], s.freeNames[:n-1]
		s.names[id] = e
	} else {
		id = uint32(len(s.names))
		s.names = append(s.names, e)
	}
	s.nameIDs[e.name] = id
	return id
}

// internLoc returns loc's intern ID with one more reference taken,
// entering it (strings copied) when it is new.
func (s *Memory) internLoc(loc locus.Location) uint32 {
	id, ok := s.locIDs[loc]
	if !ok {
		e := locEntry{loc: locus.Location{Type: loc.Type, A: strings.Clone(loc.A), B: strings.Clone(loc.B)}}
		if n := len(s.freeLocs); n > 0 {
			id, s.freeLocs = s.freeLocs[n-1], s.freeLocs[:n-1]
			s.locs[id] = e
		} else {
			id = uint32(len(s.locs))
			s.locs = append(s.locs, e)
		}
		s.locIDs[e.loc] = id
	}
	s.locs[id].refs++
	return id
}

// releaseLoc drops one reference to a location, freeing its entry with
// the last.
func (s *Memory) releaseLoc(id uint32) {
	e := &s.locs[id]
	if e.refs--; e.refs == 0 {
		delete(s.locIDs, e.loc)
		*e = locEntry{}
		s.freeLocs = append(s.freeLocs, id)
	}
}

// releaseName frees an emptied name's entry and unmaps its columns.
func (s *Memory) releaseName(id uint32) {
	s.mem.freeColumns(&s.names[id].idx)
	delete(s.nameIDs, s.names[id].name)
	s.names[id] = nameEntry{}
	s.freeNames = append(s.freeNames, id)
}

// fill materializes the event at row r into dst. Field by field: a
// composite literal would build and copy a temporary.
func (s *Memory) fill(dst *event.Instance, r row) {
	sl := s.slot(r)
	dst.ID = s.org + int(r)
	dst.Name = s.names[sl.name].name
	dst.Start = time.Unix(0, sl.start).UTC()
	dst.End = time.Unix(0, s.end(r)).UTC()
	dst.Loc = s.locs[sl.loc].loc
	dst.Attrs = s.attrs[r>>chunkBits].get(r & chunkMask)
}

// copies materializes the events of rows as one fresh array and the
// pointer slice over it, nil for none.
func (s *Memory) copies(rows []row) []*event.Instance {
	if len(rows) == 0 {
		return nil
	}
	vals := make([]event.Instance, len(rows))
	out := make([]*event.Instance, len(rows))
	for i, r := range rows {
		s.fill(&vals[i], r)
		out[i] = &vals[i]
	}
	return out
}

// index returns the named index, nil when no live event has the name.
func (s *Memory) index(name string) *nameIndex {
	if id, ok := s.nameIDs[name]; ok {
		return &s.names[id].idx
	}
	return nil
}

// read runs fn over the named index, settled, under the store's lock; fn
// does not run when no live event has the name. It is every index read's
// one way in, and the only place a read settles: an unsettled tail drops
// the read lock for the write lock, looks the index up again (an eviction
// in between may have emptied the name), settles it and runs fn under the
// write lock. Resuming on the read lock after a write-locked settle would
// trust state observed before the upgrade — the store race of DESIGN.md
// §13, which the deferunlock analyzer rejects.
func (s *Memory) read(name string, fn func(idx *nameIndex)) {
	s.mu.RLock()
	if idx := s.index(name); idx == nil || idx.settled() {
		defer s.mu.RUnlock()
		if idx != nil {
			fn(idx)
		}
		return
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx := s.index(name); idx != nil {
		idx.settle(s.chunks)
		fn(idx)
	}
}

// Get returns a copy of the instance with the given ID. Evicted IDs
// report not found, exactly like IDs never assigned.
func (s *Memory) Get(id int) (*event.Instance, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.lookup(id)
	if !ok {
		return nil, false
	}
	in := new(event.Instance)
	s.fill(in, r)
	return in, true
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
	return s.next
}

// Count returns the number of instances of the named event.
//
//lint:ignore deadcode TestConcurrentOutOfOrderAddQuery and the collector, simnet and realtime tests count a name's instances
func (s *Memory) Count(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if idx := s.index(name); idx != nil {
		return len(idx.rows)
	}
	return 0
}

// Names returns all event names present, sorted.
func (s *Memory) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.nameIDs))
	for n := range s.nameIDs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query returns copies of the instances of the named event whose [Start,
// End] interval overlaps [from, to] (inclusive on both ends), ordered by
// start time.
func (s *Memory) Query(name string, from, to time.Time) []*event.Instance {
	return s.query(name, from, to, nil)
}

// QueryAt is Query narrowed to the instances at the exact location. The
// location is compared as its intern ID, before anything is materialized.
func (s *Memory) QueryAt(name string, from, to time.Time, loc locus.Location) []*event.Instance {
	return s.query(name, from, to, &loc)
}

func (s *Memory) query(name string, from, to time.Time, loc *locus.Location) (out []*event.Instance) {
	mQueries.Inc()
	if to.Before(from) {
		return nil
	}
	s.read(name, func(idx *nameIndex) {
		mQueryWindow.ObserveDuration(to.Sub(from))
		out = s.queryScan(idx, from, to, loc)
	})
	return out
}

// clampNanos is t as Unix nanoseconds, saturated to int64's range.
func clampNanos(t time.Time) int64 {
	switch {
	case t.Before(event.MinTime):
		return math.MinInt64
	case t.After(event.MaxTime):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// queryScan performs the window scan over a settled index, under read's
// lock.
func (s *Memory) queryScan(idx *nameIndex, from, to time.Time, loc *locus.Location) []*event.Instance {
	var lid uint32
	if loc != nil {
		var ok bool
		if lid, ok = s.locIDs[*loc]; !ok {
			mQueryResults.Observe(0)
			return nil
		}
	}
	lo, hi := clampNanos(from), clampNanos(to)
	// First candidate: an overlapping instance has Start >= from-maxDur,
	// saturated at the first instant; the last has Start <= to.
	low := int64(math.MinInt64)
	if idx.maxDur <= uint64(lo)-uint64(low) {
		low = int64(uint64(lo) - idx.maxDur)
	}
	c := idx.by(s.chunks)
	first := c.search(0, len(idx.rows), low, false)
	last := c.gallop(first, len(idx.rows), hi)
	var buf [64]row
	rows := buf[:0]
	skipped := int64(0)
	for _, r := range idx.rows[first:last] {
		if s.end(r) < lo {
			skipped++
			continue
		}
		if loc != nil && s.slot(r).loc != lid {
			continue
		}
		rows = append(rows, r)
	}
	if skipped > 0 {
		mQueryScanSkip.Add(skipped)
	}
	mQueryResults.Observe(float64(len(rows)))
	return s.copies(rows)
}

// All returns copies of every instance of the named event ordered by
// start time.
func (s *Memory) All(name string) (out []*event.Instance) {
	s.read(name, func(idx *nameIndex) { out = s.copies(idx.rows) })
	return out
}

// CountStarts adds to counts[i] the number of live instances of the
// named event whose Start lies in [from, to) and in the i-th bin of width
// bin counted from from; starts in a bin past len(counts) are not
// counted. It reads the name's sorted index alone — one binary search and
// a walk over its rows' starts — and materializes no instance.
func (s *Memory) CountStarts(name string, from, to time.Time, bin time.Duration, counts []int) {
	if bin <= 0 || len(counts) == 0 || !to.After(from) {
		return
	}
	s.read(name, func(idx *nameIndex) { countStarts(idx.by(s.chunks), from, to, bin, counts) })
}

// countStarts is CountStarts over a settled index. It divides once per
// bin it meets, not once per start: a start before the current bin's end
// is counted in it.
func countStarts(starts byStart, from, to time.Time, bin time.Duration, counts []int) {
	// event.MinTime and event.MaxTime are int64's range, so a start is
	// never past it: a to beyond MaxTime bounds nothing, and a from
	// beyond it leaves nothing to count.
	if from.After(event.MaxTime) {
		return
	}
	bounded := !to.After(event.MaxTime)
	hi := clampNanos(to)
	i, end := 0, int64(math.MinInt64) // the current bin and its end
	for k := starts.search(0, len(starts.rows), clampNanos(from), false); k < len(starts.rows); k++ {
		t := starts.start(k)
		if bounded && t >= hi {
			break
		}
		if t >= end {
			n, off := binOf(from, t, bin)
			if n >= uint64(len(counts)) {
				break
			}
			i = int(n)
			if end = t + (int64(bin) - off); end < t {
				end = math.MaxInt64 // saturated: the last bin a start can be in
			}
		}
		counts[i]++
	}
}

// binOf returns which bin of width bin, counted from from, holds t (Unix
// ns, not before from), and t's offset into it. It takes the span between
// the two in 128 bits: from may lie centuries before the store's earliest
// instant, farther than a Duration reaches.
func binOf(from time.Time, t int64, bin time.Duration) (n uint64, off int64) {
	sec, nsec := t/1e9, t%1e9
	if nsec < 0 {
		sec, nsec = sec-1, nsec+1e9
	}
	sec -= from.Unix()
	if nsec -= int64(from.Nanosecond()); nsec < 0 {
		sec, nsec = sec-1, nsec+1e9
	}
	hi, lo := bits.Mul64(uint64(sec), 1e9)
	lo, carry := bits.Add64(lo, uint64(nsec), 0)
	if hi += carry; hi >= uint64(bin) {
		return math.MaxUint64, 0 // more bins out than a slice can hold
	}
	n, r := bits.Div64(hi, lo, uint64(bin))
	return n, int64(r)
}

// ScanAfter returns copies of up to limit live instances with ID > after,
// in ID (insertion) order, optionally restricted to one event name (""
// matches every name). more reports whether further matching instances
// remain — the caller resumes with after = out[len(out)-1].ID. This is
// the pagination primitive behind the HTTP list endpoints: a bounded
// slice per call instead of one unbounded array for the whole store.
func (s *Memory) ScanAfter(name string, after, limit int) (out []*event.Instance, more bool) {
	if limit <= 0 {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var nid uint32
	if name != "" {
		var ok bool
		if nid, ok = s.nameIDs[name]; !ok {
			return nil, false
		}
	}
	if after >= s.next {
		return nil, false // past every ID; after+1 could wrap below the first
	}
	var rows []row
	for id := max(after+1, s.base); id < s.next; id++ {
		r, ok := s.lookup(id)
		if !ok || (nid != 0 && s.slot(r).name != nid) {
			continue
		}
		if len(rows) == limit {
			more = true
			break
		}
		rows = append(rows, r)
	}
	return s.copies(rows), more
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
	return time.Unix(0, s.first).UTC(), time.Unix(0, s.last).UTC(), true
}

// ---------------------------------------------------------------------
// Retention eviction
// ---------------------------------------------------------------------

// EvictBefore removes every instance whose End falls strictly before
// cutoff and returns how many were evicted. Evicted IDs stay empty (Get
// reports not found; later IDs are unchanged) and the Span bounds are
// recomputed so they stay exact. The registered OnEvict hooks, if any, run
// after the lock is released.
func (s *Memory) EvictBefore(cutoff time.Time) int {
	s.mu.Lock()
	gone := s.evictLocked(clampNanos(cutoff))
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
func (s *Memory) maybeEvictLocked() (evicted []Evicted, cutoff time.Time) {
	if s.retention <= 0 || s.live == 0 {
		return nil, time.Time{}
	}
	r := int64(s.retention)
	if s.last-s.first <= r+r/4 {
		return nil, time.Time{}
	}
	c := s.last - r
	return s.evictLocked(c), time.Unix(0, c).UTC()
}

// evictLocked empties every slot whose End is before cutoff (Unix ns),
// releasing the intern entries no live slot references any more, and
// returns what it emptied in ID order.
func (s *Memory) evictLocked(cutoff int64) []Evicted {
	n := 0
	for id := s.base; id < s.next; id++ {
		if r, ok := s.lookup(id); ok && s.end(r) < cutoff {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	gone := make([]Evicted, 0, n)
	for id := s.base; len(gone) < n; id++ {
		r, ok := s.lookup(id)
		if !ok || s.end(r) >= cutoff {
			continue
		}
		sl := s.slot(r)
		gone = append(gone, Evicted{ID: id, Name: s.names[sl.name].name, Start: sl.start})
		s.releaseLoc(sl.loc)
		*sl = slot{}
		if d := s.durs[r>>chunkBits]; d != nil {
			d[r&chunkMask] = 0
		}
		if col := s.attrs[r>>chunkBits].col; col != nil {
			col[r&chunkMask] = 0
		}
	}
	s.live -= n
	mEvicted.Add(int64(n))
	mEvictions.Inc()
	// Trim leading empty slots, advancing the base; the chunks wholly
	// below it go — every chunk, once nothing is live — and org (and with
	// it every row) moves by what they held.
	for s.base < s.next {
		if _, ok := s.lookup(s.base); ok {
			break
		}
		s.base++
	}
	// (Replace's bounds and forward gaps can reach past the allocated
	// chunks.)
	drop := min((s.base-s.org)>>chunkBits, len(s.chunks))
	if s.live == 0 {
		drop = len(s.chunks)
	}
	shift := row(drop << chunkBits)
	// Filter each name index in place, unsettled: what is kept keeps its
	// order, so the kept prefix rows are still the sorted prefix and the
	// kept tail rows still the tail. maxDur is left as an upper bound: a
	// too-wide query bound only costs extra scan, never correctness.
	for nid := 1; nid < len(s.names); nid++ {
		idx := &s.names[nid].idx
		if len(idx.rows) == 0 {
			continue
		}
		k, sorted := 0, 0
		for i, r := range idx.rows {
			if s.slot(r).name != 0 {
				idx.rows[k] = r - shift
				k++
				if i < idx.sorted {
					sorted = k
				}
			}
		}
		if k == 0 {
			s.releaseName(uint32(nid))
			continue
		}
		idx.rows, idx.sorted = idx.rows[:k], sorted
	}
	s.dropChunks(drop)
	// Recompute the span bounds. Eviction is keyed on End < cutoff, so
	// last never shrinks, but first can.
	if s.live == 0 {
		s.org, s.first, s.last = s.base&^chunkMask, 0, 0
		return gone
	}
	first := true
	for id := s.base; id < s.next; id++ {
		if r, ok := s.lookup(id); ok && (first || s.slot(r).start < s.first) {
			s.first, first = s.slot(r).start, false
		}
	}
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
// mutate the instances it is shown (Each fills one scratch instance per
// call).
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
// plus any interior empty slots — and the live instance count.
func (c Cut) Bounds() (base, next, live int) {
	return c.s.base, c.s.next, c.s.live
}

// each calls fn with the row of every live ID in [lo, hi) ∩ [base,
// next), in ID order, stopping at the first error.
func (c Cut) each(lo, hi int, fn func(row) error) error {
	s := c.s
	for id := max(lo, s.base); id < min(hi, s.next); id++ {
		if r, ok := s.lookup(id); ok {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Count returns how many live instances carry an ID in [lo, hi).
func (c Cut) Count(lo, hi int) int {
	n := 0
	c.each(lo, hi, func(row) error { n++; return nil }) //nolint:errcheck // the func returns nil
	return n
}

// Each calls fn for every live instance with an ID in [lo, hi), in ID
// order, stopping at the first error.
func (c Cut) Each(lo, hi int, fn func(*event.Instance) error) error {
	var in event.Instance
	return c.each(lo, hi, func(r row) error {
		c.s.fill(&in, r)
		return fn(&in)
	})
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

// Replace makes a dumped state the store's whole content, whatever it
// held: fill is called once, under the store's write lock, with put,
// which places a batch of instances each at its recorded ID — IDs
// ascending across every call, inside [base, next) — and copies what it
// keeps, so fill may reuse a batch once put returns. Interior gaps stay
// empty, and the next insert receives ID next. fill must not call back
// into the store, and returns put's error when put refuses a batch; a nil
// fill restores the empty range. When put refuses or fill fails, the
// store is left empty. It is how a checkpoint is restored — at boot into
// a fresh store, and on a replica over the store it had been filling
// itself. Hooks and retention stay; it runs no hook, so whoever derives
// state from the store's content rebuilds it.
func (s *Memory) Replace(base, next int, fill func(put func([]event.Instance) error) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reset()
	if base < 0 || next < base {
		return fmt.Errorf("store: Replace bounds [%d,%d) are not a range", base, next)
	}
	s.org, s.base, s.next = base&^chunkMask, base, next
	if fill == nil {
		return nil
	}
	prev := base - 1
	put := func(ins []event.Instance) error {
		for i := range ins {
			in := &ins[i]
			if in.ID <= prev || in.ID >= next {
				return fmt.Errorf("store: Replace instance ID %d out of order for bounds [%d,%d)", in.ID, base, next)
			}
			if in.ID >= base+math.MaxUint32-chunkSize {
				return fmt.Errorf("store: Replace instance ID %d lies 2^32 or more above the base %d", in.ID, base)
			}
			prev = in.ID
			start, okS := nanos(in.Start)
			end, okE := nanos(in.End)
			if !okS || !okE {
				return fmt.Errorf("store: Replace instance ID %d: %w", in.ID, event.ErrTimeRange)
			}
			s.place(in.ID, start, end, in)
		}
		return nil
	}
	if err := fill(put); err != nil {
		s.reset()
		return err
	}
	return nil
}
