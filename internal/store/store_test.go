package store

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

var t0 = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

func mk(name string, startMin, durMin int, loc locus.Location) event.Instance {
	st := t0.Add(time.Duration(startMin) * time.Minute)
	return event.Instance{Name: name, Start: st, End: st.Add(time.Duration(durMin) * time.Minute), Loc: loc}
}

func TestAddAssignsIDs(t *testing.T) {
	s := New()
	a := s.Add(mk("e", 0, 1, locus.At(locus.Router, "r1")))
	b := s.Add(mk("e", 5, 1, locus.At(locus.Router, "r2")))
	if a.ID == b.ID {
		t.Error("IDs not unique")
	}
	got, ok := s.Get(b.ID)
	if !ok || got.Loc.A != "r2" {
		t.Error("Get by ID failed")
	}
	if _, ok := s.Get(-1); ok {
		t.Error("negative ID accepted")
	}
	if _, ok := s.Get(999); ok {
		t.Error("out-of-range ID accepted")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestQueryOverlapSemantics(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r1")
	s.Add(mk("e", 0, 10, loc))  // [0,10]
	s.Add(mk("e", 20, 10, loc)) // [20,30]
	s.Add(mk("e", 50, 0, loc))  // instantaneous at 50

	q := func(fromMin, toMin int) int {
		return len(s.Query("e", t0.Add(time.Duration(fromMin)*time.Minute), t0.Add(time.Duration(toMin)*time.Minute)))
	}
	if got := q(5, 25); got != 2 {
		t.Errorf("overlap query = %d, want 2", got)
	}
	if got := q(10, 10); got != 1 { // touches first interval's end
		t.Errorf("point-at-end query = %d, want 1", got)
	}
	if got := q(11, 19); got != 0 {
		t.Errorf("gap query = %d, want 0", got)
	}
	if got := q(50, 50); got != 1 {
		t.Errorf("instantaneous query = %d, want 1", got)
	}
	if got := q(40, 30); got != 0 { // inverted window
		t.Errorf("inverted window query = %d, want 0", got)
	}
	if got := len(s.Query("other", t0, t0.Add(time.Hour))); got != 0 {
		t.Errorf("unknown name query = %d", got)
	}
}

func TestQueryOrderedAndOutOfOrderInsert(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r1")
	// Insert deliberately out of order.
	for _, m := range []int{30, 10, 20, 0, 40} {
		s.Add(mk("e", m, 1, loc))
	}
	got := s.Query("e", t0, t0.Add(time.Hour))
	if len(got) != 5 {
		t.Fatalf("got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Start.After(got[i].Start) {
			t.Fatal("results not sorted by start time")
		}
	}
}

func TestQueryAtAndFunc(t *testing.T) {
	s := New()
	l1 := locus.Between(locus.Interface, "r1", "if0")
	l2 := locus.Between(locus.Interface, "r2", "if0")
	s.Add(mk("e", 0, 1, l1))
	s.Add(mk("e", 0, 1, l2))
	if got := s.QueryAt("e", t0, t0.Add(time.Hour), l1); len(got) != 1 || got[0].Loc != l1 {
		t.Errorf("QueryAt = %v", got)
	}
	got := s.QueryFunc("e", t0, t0.Add(time.Hour), func(in *event.Instance) bool {
		return in.Loc.A == "r2"
	})
	if len(got) != 1 || got[0].Loc != l2 {
		t.Errorf("QueryFunc = %v", got)
	}
}

func TestLongDurationNotMissed(t *testing.T) {
	// A very long instance starting far before the window must still be
	// found (this exercises the maxDur lower bound).
	s := New()
	loc := locus.At(locus.Router, "r1")
	s.Add(mk("e", 0, 600, loc)) // 10-hour event
	for m := 1; m < 100; m++ {
		s.Add(mk("e", m*10, 1, loc))
	}
	got := s.Query("e", t0.Add(9*time.Hour), t0.Add(9*time.Hour+time.Minute))
	found := false
	for _, in := range got {
		if in.Start.Equal(t0) {
			found = true
		}
	}
	if !found {
		t.Error("long-duration instance missed by windowed query")
	}
}

func TestNamesCountSpan(t *testing.T) {
	s := New()
	if _, _, ok := s.Span(); ok {
		t.Error("empty store has a span")
	}
	s.Add(mk("b", 10, 5, locus.At(locus.Router, "r")))
	s.Add(mk("a", 0, 1, locus.At(locus.Router, "r")))
	if n := s.Names(); len(n) != 2 || n[0] != "a" || n[1] != "b" {
		t.Errorf("Names = %v", n)
	}
	if s.Count("b") != 1 || s.Count("zzz") != 0 {
		t.Error("Count wrong")
	}
	first, last, ok := s.Span()
	if !ok || !first.Equal(t0) || !last.Equal(t0.Add(15*time.Minute)) {
		t.Errorf("Span = %v %v %v", first, last, ok)
	}
}

func TestAllReturnsCopy(t *testing.T) {
	s := New()
	s.Add(mk("e", 5, 1, locus.At(locus.Router, "r")))
	s.Add(mk("e", 0, 1, locus.At(locus.Router, "r")))
	all := s.All("e")
	if len(all) != 2 || all[0].Start.After(all[1].Start) {
		t.Fatalf("All = %v", all)
	}
	all[0] = nil // must not corrupt the index
	if got := s.All("e"); got[0] == nil {
		t.Error("All shares backing slice")
	}
	if s.All("none") != nil {
		t.Error("All for unknown name should be nil")
	}
}

// TestQueryMatchesLinearScan is a property test: the indexed query returns
// exactly the instances a straightforward linear scan does.
func TestQueryMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type iv struct{ st, en time.Time }
		var naive []iv
		for i := 0; i < 200; i++ {
			st := rng.Intn(10000)
			dur := rng.Intn(100)
			in := mk("e", 0, 0, locus.At(locus.Router, "r"))
			in.Start = t0.Add(time.Duration(st) * time.Second)
			in.End = in.Start.Add(time.Duration(dur) * time.Second)
			s.Add(in)
			naive = append(naive, iv{in.Start, in.End})
		}
		for trial := 0; trial < 20; trial++ {
			from := t0.Add(time.Duration(rng.Intn(10000)) * time.Second)
			to := from.Add(time.Duration(rng.Intn(500)) * time.Second)
			want := 0
			for _, v := range naive {
				if !v.st.After(to) && !v.en.Before(from) {
					want++
				}
			}
			if got := len(s.Query("e", from, to)); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			s.Add(mk("e", i, 1, locus.At(locus.Router, "r")))
		}
	}()
	for i := 0; i < 200; i++ {
		s.Query("e", t0, t0.Add(time.Hour))
		s.Count("e")
	}
	<-done
	if s.Count("e") != 500 {
		t.Errorf("Count after concurrent writes = %d", s.Count("e"))
	}
}

// TestShuffledInsertEquivalence is the chaos-ingestion property: Query and
// All results are identical whether records were inserted in order or in a
// shuffled order (forcing the dirty/ensureSorted path on every read).
// Instances are compared by value — IDs reflect insertion order and are
// expected to differ.
func TestShuffledInsertEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ins []event.Instance
		for i := 0; i < 300; i++ {
			in := mk("e", 0, 0, locus.At(locus.Router, "r"))
			// Distinct starts keep the comparison exact: ties have no
			// defined relative order across insertion orders.
			in.Start = t0.Add(time.Duration(i*7+rng.Intn(7)) * time.Second)
			in.End = in.Start.Add(time.Duration(rng.Intn(600)) * time.Second)
			ins = append(ins, in)
		}
		ordered, shuffled := New(), New()
		sorted := append([]event.Instance(nil), ins...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
		for _, in := range sorted {
			ordered.Add(in)
		}
		perm := rng.Perm(len(ins))
		for _, i := range perm {
			shuffled.Add(ins[i])
		}
		same := func(a, b []*event.Instance) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if !a[i].Start.Equal(b[i].Start) || !a[i].End.Equal(b[i].End) ||
					a[i].Name != b[i].Name || a[i].Loc != b[i].Loc {
					return false
				}
			}
			return true
		}
		if !same(ordered.All("e"), shuffled.All("e")) {
			return false
		}
		for trial := 0; trial < 30; trial++ {
			from := t0.Add(time.Duration(rng.Intn(2500)) * time.Second)
			to := from.Add(time.Duration(rng.Intn(900)) * time.Second)
			if !same(ordered.Query("e", from, to), shuffled.Query("e", from, to)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentOutOfOrderAddQuery hammers the lazy re-sort path: writers
// insert in reverse time order (every Add dirties the index) while readers
// query concurrently. Every query result must be sorted — the re-sort loop
// in sortIfDirty may not return while the index is dirty — and a trend
// count never shrinks. Run with -race.
func TestConcurrentOutOfOrderAddQuery(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r")
	const writers, perWriter = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := perWriter; i > 0; i-- {
				s.Add(mk("e", i*writers+w, 1, loc))
			}
		}(w)
	}
	readDone := make(chan struct{})
	var sortViolation atomic.Bool
	go func() {
		defer close(readDone)
		for i := 0; i < 2000; i++ {
			got := s.Query("e", t0, t0.Add(100*time.Hour))
			for j := 1; j < len(got); j++ {
				if got[j-1].Start.After(got[j].Start) {
					sortViolation.Store(true)
					return
				}
			}
		}
	}()
	// A trend count racing the same writes settles the same index and
	// only ever sees the count grow.
	countDone := make(chan struct{})
	var countShrank atomic.Bool
	go func() {
		defer close(countDone)
		counts, prev := make([]int, 1), 0
		for i := 0; i < 2000; i++ {
			counts[0] = 0
			s.CountStarts("e", t0, t0.Add(100*time.Hour), 100*time.Hour, counts)
			if counts[0] < prev {
				countShrank.Store(true)
				return
			}
			prev = counts[0]
		}
	}()
	wg.Wait()
	<-readDone
	<-countDone
	if sortViolation.Load() {
		t.Fatal("Query returned unsorted results during concurrent out-of-order Adds")
	}
	if countShrank.Load() {
		t.Fatal("CountStarts counted fewer starts than it had before, under concurrent Adds")
	}
	if got := s.Count("e"); got != writers*perWriter {
		t.Errorf("Count = %d, want %d", got, writers*perWriter)
	}
}

// TestSpanIncremental pins the O(1) Span maintenance against a brute-force
// recomputation under out-of-order and nested-interval inserts.
func TestSpanIncremental(t *testing.T) {
	s := New()
	specs := []struct{ start, dur int }{
		{50, 10}, {10, 200}, {300, 1}, {60, 5}, {0, 2}, {100, 500}, {20, 1},
	}
	wantFirst, wantLast := time.Time{}, time.Time{}
	for i, sp := range specs {
		in := mk("ev", sp.start, sp.dur, locus.At(locus.Router, "r"))
		if i == 0 || in.Start.Before(wantFirst) {
			wantFirst = in.Start
		}
		if i == 0 || in.End.After(wantLast) {
			wantLast = in.End
		}
		s.Add(in)
		first, last, ok := s.Span()
		if !ok || !first.Equal(wantFirst) || !last.Equal(wantLast) {
			t.Fatalf("after %d adds: Span = %v..%v %v, want %v..%v", i+1, first, last, ok, wantFirst, wantLast)
		}
	}
}

// dump reads the store's ID bounds and a copy of every live instance in
// ID order straight from its fields — the independent reading a Cut is
// checked against.
func dump(s *Memory) (base, next int, ins []event.Instance) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id := s.base; id < s.next; id++ {
		if r, ok := s.lookup(id); ok {
			var in event.Instance
			s.fill(&in, r)
			ins = append(ins, in)
		}
	}
	return s.base, s.next, ins
}

// replaceWith is Replace with ins as its one batch.
func replaceWith(s *Memory, base, next int, ins []event.Instance) error {
	return s.Replace(base, next, func(put func([]event.Instance) error) error { return put(ins) })
}

// TestCutRangesMatchDump: a Cut's bounds, per-range counts and per-range
// walks agree with the store's own fields (dump) after ragged eviction,
// for ranges inside, across and beyond the store's ID bounds — and
// SnapshotTo, built on it, walks the whole store.
func TestCutRangesMatchDump(t *testing.T) {
	s := New()
	for i := 0; i < 200; i++ {
		dur := 1
		if i%7 == 0 {
			dur = 500 // survives the eviction below among evicted neighbours
		}
		s.Add(mk("e", i, dur, locus.At(locus.Router, "r1")))
	}
	if s.EvictBefore(t0.Add(120*time.Minute)) == 0 {
		t.Fatal("nothing evicted")
	}
	base, next, ins := dump(s)
	liveIn := func(lo, hi int) (ids []int) {
		for _, in := range ins {
			if in.ID >= lo && in.ID < hi {
				ids = append(ids, in.ID)
			}
		}
		return ids
	}
	err := s.Cut(func(c Cut) error {
		if b, n, live := c.Bounds(); b != base || n != next || live != len(ins) {
			t.Errorf("Bounds = %d,%d,%d; dump says %d,%d,%d", b, n, live, base, next, len(ins))
		}
		for _, r := range [][2]int{{0, 50}, {base, next}, {-10, next + 10}, {100, 130}, {next, next + 5}, {150, 150}, {160, 140}} {
			want := liveIn(r[0], r[1])
			if got := c.Count(r[0], r[1]); got != len(want) {
				t.Errorf("Count[%d,%d) = %d, want %d", r[0], r[1], got, len(want))
			}
			var got []int
			if err := c.Each(r[0], r[1], func(in *event.Instance) error {
				got = append(got, in.ID)
				return nil
			}); err != nil {
				return err
			}
			if len(got) != len(want) {
				t.Errorf("Each[%d,%d) visited %v, want %v", r[0], r[1], got, want)
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("Each[%d,%d) visited %v, want %v", r[0], r[1], got, want)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	err = s.SnapshotTo(func(b, n, count int) error {
		if b != base || n != next || count != len(ins) {
			t.Errorf("SnapshotTo header = %d,%d,%d; dump says %d,%d,%d", b, n, count, base, next, len(ins))
		}
		return nil
	}, func(in *event.Instance) error {
		if in.ID != ins[visited].ID {
			t.Errorf("SnapshotTo visit %d is ID %d, want %d", visited, in.ID, ins[visited].ID)
		}
		visited++
		return nil
	})
	if err != nil || visited != len(ins) {
		t.Fatalf("SnapshotTo visited %d of %d (%v)", visited, len(ins), err)
	}
}
