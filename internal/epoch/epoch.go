// Package epoch owns the rule every routing-derived memo in the spatial
// model follows: an answer computed for one routing epoch holds for every
// instant of that epoch, until a change log grows. A Clock numbers the
// epochs of one change log; a Memo keeps the answers for one generation
// of the clocks it depends on and drops them all when any of them moves.
package epoch

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/obs"
)

// Clock records the distinct instants at which a change log changed
// something. The open interval between two consecutive instants is one
// epoch, within which everything derived from the log is constant.
// Recording is single-writer (ingest); At, Len and Generation may then be
// called from any number of readers.
type Clock struct {
	instants []time.Time // sorted, distinct
	gen      atomic.Int64
}

// Record notes one change at instant at. Changes to different keys of a
// log may interleave in time, so at is inserted in order rather than
// appended; an instant already known opens no new epoch. Every call
// advances the generation, since an earlier instant renumbers the epochs
// after it.
func (c *Clock) Record(at time.Time) {
	i := sort.Search(len(c.instants), func(i int) bool { return !c.instants[i].Before(at) })
	if i == len(c.instants) || !c.instants[i].Equal(at) {
		c.instants = slices.Insert(c.instants, i, at)
	}
	c.gen.Add(1)
}

// At returns the epoch of time t: the number of recorded instants at or
// before t.
func (c *Clock) At(t time.Time) int {
	return sort.Search(len(c.instants), func(i int) bool { return c.instants[i].After(t) })
}

// Len returns the number of distinct instants recorded.
func (c *Clock) Len() int { return len(c.instants) }

// Generation returns the number of changes recorded. Epoch numbers are
// only comparable between two reads of the same generation.
func (c *Clock) Generation() int64 { return c.gen.Load() }

// Memo memoizes answers keyed by K for one generation G of the clocks
// they were computed against. It is safe for concurrent use.
type Memo[G, K comparable, V any] struct {
	hits, misses *obs.Counter
	entries      *obs.Gauge
	cur          atomic.Pointer[table[G]]
}

// table is one generation's answers. sync.Map suits the access pattern:
// each key is written once and then only read, by every diagnosis
// worker.
type table[G comparable] struct {
	gen G
	m   sync.Map // K → entry[V]
	// n counts the entries stored, or is retired once the table has been
	// swapped out or dropped: a store that loses that race is not
	// counted, so the gauge is always the live tables' entries.
	n atomic.Int64
}

// retired marks a table whose entries the gauge no longer counts.
const retired = -1

type entry[V any] struct {
	v   V
	err error
}

// NewMemo returns an empty memo counting its hits and misses on the given
// counters and its stored entries on the gauge, which every table swap and
// Drop takes back down, and so does the memo becoming garbage: the gauge
// is what the live memos sharing it hold.
func NewMemo[G, K comparable, V any](hits, misses *obs.Counter, entries *obs.Gauge) *Memo[G, K, V] {
	m := &Memo[G, K, V]{hits: hits, misses: misses, entries: entries}
	runtime.SetFinalizer(m, (*Memo[G, K, V]).Drop)
	return m
}

// Get returns the answer memoized for key in generation gen, calling fill
// to compute it on a miss. fill runs outside any lock, and what it
// returns, an error included, is kept and returned verbatim to every
// later caller of the generation. Concurrent misses on one key may each
// call fill; the first answer stored stays, and every caller gets it.
// A table built for another generation is swapped out whole.
func (m *Memo[G, K, V]) Get(gen G, key K, fill func() (V, error)) (V, error) {
	t := m.table(gen)
	if e, ok := t.m.Load(key); ok {
		m.hits.Inc()
		e := e.(entry[V])
		return e.v, e.err
	}
	m.misses.Inc()
	v, err := fill()
	e, loaded := t.m.LoadOrStore(key, entry[V]{v: v, err: err})
	if loaded {
		e := e.(entry[V])
		return e.v, e.err
	}
	m.count(t)
	return v, err
}

// count adds one stored entry of t to the gauge, unless t is retired.
func (m *Memo[G, K, V]) count(t *table[G]) {
	for {
		n := t.n.Load()
		if n == retired {
			return
		}
		if t.n.CompareAndSwap(n, n+1) {
			m.entries.Add(1)
			return
		}
	}
}

// retire takes t's entries off the gauge; t is then never counted again.
func (m *Memo[G, K, V]) retire(t *table[G]) {
	if t == nil {
		return
	}
	if n := t.n.Swap(retired); n > 0 {
		m.entries.Add(-n)
	}
}

// Drop discards every memoized answer, for a change the generations do
// not count (a registration that alters what a key means).
func (m *Memo[G, K, V]) Drop() { m.retire(m.cur.Swap(nil)) }

// table returns the table for gen, replacing one from another
// generation. Losing the CAS race is harmless: both tables are empty and
// every later reader adopts the winner.
func (m *Memo[G, K, V]) table(gen G) *table[G] {
	for {
		t := m.cur.Load()
		if t != nil && t.gen == gen {
			return t
		}
		nt := &table[G]{gen: gen}
		if m.cur.CompareAndSwap(t, nt) {
			m.retire(t)
			return nt
		}
	}
}
