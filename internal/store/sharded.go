package store

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// Sharded is a Store composed of N independent Memory shards. Each shard
// has its own lock (and, in the server, its own WAL segment directory
// and applier goroutine), so writes to different shards never contend. Event IDs stay globally monotonic via an atomic block
// allocator, which keeps ScanAfter pagination and StoreDigest
// well-defined across shards; a shard therefore sees a sparse ID
// subsequence and relies on Memory's gap-tolerant Put.
//
// Placement is a performance property, not a correctness one: every read
// scatter-gathers across all shards and merges in the same order a
// single Memory would have produced, so a Sharded store is
// indistinguishable from a Memory fed the same sequence of writes.
type Sharded struct {
	shards []*Memory
	next   atomic.Int64
}

// NewSharded returns a Sharded store of n fresh shards.
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	shards := make([]*Memory, n)
	for i := range shards {
		shards[i] = New()
	}
	return &Sharded{shards: shards}
}

// NewShardedOf assembles a Sharded store over existing shards (the
// recovery path: each shard was rebuilt by its own WAL). The allocator
// resumes from the highest frontier any shard has seen; recovery
// repositions it with SetNext.
func NewShardedOf(shards []*Memory) *Sharded {
	s := &Sharded{shards: shards}
	next := 0
	for _, sh := range shards {
		if n := sh.NextID(); n > next {
			next = n
		}
	}
	s.next.Store(int64(next))
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns the i'th shard.
func (s *Sharded) Shard(i int) *Memory { return s.shards[i] }

// ShardFor returns the shard index a location is placed on: FNV-1a of
// the location's canonical Key, mod the shard count. Placement is a pure
// function of the event's own location, fixed for the life of a data
// dir; the hash runs over the key's parts so the hot path never builds
// the string.
func (s *Sharded) ShardFor(loc locus.Location) int {
	n := len(s.shards)
	if n == 1 {
		return 0
	}
	h := fnvAdd(fnvOffset32, loc.Type.String())
	h = fnvAdd(h, "|")
	h = fnvAdd(h, loc.A)
	h = fnvAdd(h, "|")
	h = fnvAdd(h, loc.B)
	return int(h % uint32(n))
}

// 32-bit FNV-1a, as hash/fnv computes it.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvAdd(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// AllocBlock atomically reserves n consecutive global IDs and returns
// the first. The server's dispatcher allocates one block per ingest
// batch so a split batch keeps the exact IDs a 1-shard server would
// have assigned.
func (s *Sharded) AllocBlock(n int) int {
	return int(s.next.Add(int64(n))) - n
}

// SetNext positions the global allocator at next. Recovery sets it to
// the ID the journal's next record allocates — below the shards'
// frontiers while the retained tail is replayed over them — so it is for
// a store no one else is writing.
func (s *Sharded) SetNext(next int) { s.next.Store(int64(next)) }

// NextID returns the next global ID the allocator will hand out.
func (s *Sharded) NextID() int { return int(s.next.Load()) }

// Add routes in to its shard under a freshly allocated global ID.
func (s *Sharded) Add(in event.Instance) *event.Instance {
	in.ID = s.AllocBlock(1)
	stored, err := s.shards[s.ShardFor(in.Loc)].Put(in)
	if err != nil {
		// IDs are allocated fresh and never reused, so Put cannot fail.
		panic(fmt.Sprintf("store: sharded Add: %v", err))
	}
	return stored
}

// AddAll allocates one ID block for the whole slice, splits it by shard
// preserving order, and bulk-inserts each sub-slice.
func (s *Sharded) AddAll(ins []event.Instance) {
	if len(ins) == 0 {
		return
	}
	first := s.AllocBlock(len(ins))
	per := make(map[int][]event.Instance, len(s.shards))
	for i, in := range ins {
		in.ID = first + i
		si := s.ShardFor(in.Loc)
		per[si] = append(per[si], in)
	}
	for si := 0; si < len(s.shards); si++ {
		sub, ok := per[si]
		if !ok {
			continue
		}
		if err := s.shards[si].PutAll(sub); err != nil {
			panic(fmt.Sprintf("store: sharded AddAll: %v", err))
		}
	}
}

// Get scans the shards for the ID; each probe is O(1).
func (s *Sharded) Get(id int) (*event.Instance, bool) {
	for _, sh := range s.shards {
		if in, ok := sh.Get(id); ok {
			return in, true
		}
	}
	return nil, false
}

// Len returns the number of live instances across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Count returns the number of instances of the named event.
func (s *Sharded) Count(name string) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Count(name)
	}
	return n
}

// Names returns the union of event names across shards, sorted.
func (s *Sharded) Names() []string {
	seen := map[string]bool{}
	for _, sh := range s.shards {
		for _, n := range sh.Names() {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query merges the per-shard results in (Start, ID) order — the order a
// single Memory's stable per-name index would have produced.
func (s *Sharded) Query(name string, from, to time.Time) []*event.Instance {
	return s.QueryFunc(name, from, to, nil)
}

// QueryFunc is Query with an optional filter.
func (s *Sharded) QueryFunc(name string, from, to time.Time, keep func(*event.Instance) bool) []*event.Instance {
	per := make([][]*event.Instance, 0, len(s.shards))
	for _, sh := range s.shards {
		if r := sh.QueryFunc(name, from, to, keep); len(r) > 0 {
			per = append(per, r)
		}
	}
	return mergeByStart(per)
}

// QueryAt restricts Query to one exact location. Like every read it
// scatters across all shards: reads never assume placement.
func (s *Sharded) QueryAt(name string, from, to time.Time, loc locus.Location) []*event.Instance {
	per := make([][]*event.Instance, 0, len(s.shards))
	for _, sh := range s.shards {
		if r := sh.QueryAt(name, from, to, loc); len(r) > 0 {
			per = append(per, r)
		}
	}
	return mergeByStart(per)
}

// All merges every instance of the named event in (Start, ID) order.
func (s *Sharded) All(name string) []*event.Instance {
	per := make([][]*event.Instance, 0, len(s.shards))
	for _, sh := range s.shards {
		if r := sh.All(name); len(r) > 0 {
			per = append(per, r)
		}
	}
	return mergeByStart(per)
}

// ScanAfter merges the per-shard ID-ordered scans. Each shard stream is
// capped at limit, which is enough: any instance in the merged first
// `limit` is within the first `limit` of its own shard.
func (s *Sharded) ScanAfter(name string, after, limit int) (out []*event.Instance, more bool) {
	if limit <= 0 {
		return nil, false
	}
	per := make([][]*event.Instance, 0, len(s.shards))
	for _, sh := range s.shards {
		r, m := sh.ScanAfter(name, after, limit)
		if m {
			more = true
		}
		if len(r) > 0 {
			per = append(per, r)
		}
	}
	merged := mergeByID(per)
	if len(merged) > limit {
		return merged[:limit], true
	}
	return merged, more
}

// Span returns the earliest start and latest end across all shards.
func (s *Sharded) Span() (first, last time.Time, ok bool) {
	for _, sh := range s.shards {
		f, l, o := sh.Span()
		if !o {
			continue
		}
		if !ok || f.Before(first) {
			first = f
		}
		if !ok || l.After(last) {
			last = l
		}
		ok = true
	}
	return first, last, ok
}

// Dump merges the per-shard dumps in global ID order. base is the
// smallest shard base and next the allocator frontier, so the merged
// dump digests identically to a 1-shard store fed the same writes.
func (s *Sharded) Dump() (base, next int, ins []event.Instance) {
	per := make([][]event.Instance, 0, len(s.shards))
	total := 0
	base = 0
	haveBase := false
	for _, sh := range s.shards {
		b, _, d := sh.Dump()
		if len(d) > 0 || b > 0 {
			if !haveBase || b < base {
				base = b
				haveBase = true
			}
		}
		if len(d) > 0 {
			per = append(per, d)
			total += len(d)
		}
	}
	next = s.NextID()
	ins = make([]event.Instance, 0, total)
	idx := make([]int, len(per))
	for len(ins) < total {
		best := -1
		for i, p := range per {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].ID < per[best][idx[best]].ID {
				best = i
			}
		}
		ins = append(ins, per[best][idx[best]])
		idx[best]++
	}
	return base, next, ins
}

// OnAppend registers fn on every shard; it observes per-shard appends,
// potentially concurrently (one goroutine per shard applier), so fn must
// be safe for concurrent use.
func (s *Sharded) OnAppend(fn func(*event.Instance)) {
	for _, sh := range s.shards {
		sh.OnAppend(fn)
	}
}

// OnEvict registers fn on every shard; same concurrency caveat as
// OnAppend.
func (s *Sharded) OnEvict(fn func(evicted []*event.Instance, cutoff time.Time)) {
	for _, sh := range s.shards {
		sh.OnEvict(fn)
	}
}

// SetRetention bounds every shard's look-back window. Each shard evicts
// by its own span, which is conservative relative to a single store: a
// shard whose latest End lags the global maximum keeps slightly more
// history, and nothing inside the global retention window is ever
// evicted.
func (s *Sharded) SetRetention(d time.Duration) {
	for _, sh := range s.shards {
		sh.SetRetention(d)
	}
}

// Retention returns the configured look-back window.
func (s *Sharded) Retention() time.Duration { return s.shards[0].Retention() }

// EvictBefore applies the cutoff to every shard and returns the total
// evicted.
func (s *Sharded) EvictBefore(cutoff time.Time) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.EvictBefore(cutoff)
	}
	return n
}

// mergeByStart k-way merges slices each sorted by (Start, ID) — the
// per-shard Put order — into one slice in the same order. Equal starts
// break ties by ID, reproducing a single store's stable insertion order.
func mergeByStart(per [][]*event.Instance) []*event.Instance {
	if len(per) == 0 {
		return nil
	}
	if len(per) == 1 {
		return per[0]
	}
	total := 0
	for _, p := range per {
		total += len(p)
	}
	out := make([]*event.Instance, 0, total)
	idx := make([]int, len(per))
	for len(out) < total {
		best := -1
		for i, p := range per {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || less(p[idx[i]], per[best][idx[best]]) {
				best = i
			}
		}
		out = append(out, per[best][idx[best]])
		idx[best]++
	}
	return out
}

func less(a, b *event.Instance) bool {
	if a.Start.Before(b.Start) {
		return true
	}
	if b.Start.Before(a.Start) {
		return false
	}
	return a.ID < b.ID
}

// mergeByID k-way merges ID-sorted slices into one ID-sorted slice.
func mergeByID(per [][]*event.Instance) []*event.Instance {
	if len(per) == 0 {
		return nil
	}
	if len(per) == 1 {
		return per[0]
	}
	total := 0
	for _, p := range per {
		total += len(p)
	}
	out := make([]*event.Instance, 0, total)
	idx := make([]int, len(per))
	for len(out) < total {
		best := -1
		for i, p := range per {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].ID < per[best][idx[best]].ID {
				best = i
			}
		}
		out = append(out, per[best][idx[best]])
		idx[best]++
	}
	return out
}
