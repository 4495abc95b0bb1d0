package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/obs"
)

// TestIndexSettleEqualsStableSort is the index's whole contract: under
// random interleavings of Put (in order, late, and with tied Starts),
// EvictBefore, Query and All, every read returns what a stable sort by
// Start of the name's instances in insertion order returns, element for
// element — ties in insertion order, which diagnose/breakdown byte parity
// across restarts and replicas rests on. Eviction settles nothing.
func TestIndexSettleEqualsStableSort(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		step := 0
		playIndexOps(t, fmt.Sprintf("seed %d", seed), func() bool { step++; return step <= 600 }, rng.Intn)
	}
}

// FuzzNameIndex is TestIndexSettleEqualsStableSort's op sequence decoded
// from bytes: each op is read off the input, a byte per choice.
func FuzzNameIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, 300)
		rng.Read(in)
		f.Add(in)
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 19, 15, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		playIndexOps(t, "", func() bool { return len(data) > 0 }, func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		})
	})
}

// playIndexOps plays a sequence of Puts (in order, late, and with tied
// Starts), EvictBefores, Queries and Alls on two names of one store,
// against a reference that stable-sorts each name's instances in
// insertion order, and fails on the first read that differs from it, or
// on an eviction that settles. more says whether another op follows, and
// draw returns the next choice in [0, n).
func playIndexOps(t *testing.T, label string, more func() bool, draw func(n int) int) {
	t.Helper()
	s := New()
	ref := map[string][]*event.Instance{} // insertion order, filtered by evictions
	sorted := func(name string) []*event.Instance {
		out := append([]*event.Instance(nil), ref[name]...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
		return out
	}
	same := func(what string, got, want []*event.Instance) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s returned %d instances, the reference %d", label, what, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("%s: %s[%d] is ID %d at %v, the reference has ID %d at %v",
					label, what, i, got[i].ID, got[i].Start, want[i].ID, want[i].Start)
			}
		}
	}
	settles, moved := obs.GetCounter("store.lazy.resorts"), obs.GetCounter("store.lazy.resort.moved")
	clock := 0 // seconds; advances, so that most Puts are in order
	for more() {
		name := []string{"a", "b"}[draw(2)]
		switch op := draw(20); {
		case op < 14:
			// Few distinct Starts, so ties are common; one Put in four
			// lands up to a minute behind the clock.
			clock += draw(3)
			at := clock
			if draw(4) == 0 {
				at -= draw(60)
			}
			in := event.Instance{Name: name, Loc: locus.At(locus.Router, "r"),
				Start: t0.Add(time.Duration(at) * time.Second)}
			in.End = in.Start.Add(time.Duration(draw(90)) * time.Second)
			ref[name] = append(ref[name], s.Add(in))
		case op < 16:
			same("All", s.All(name), sorted(name))
		case op < 19:
			from := t0.Add(time.Duration(clock-draw(120)) * time.Second)
			to := from.Add(time.Duration(draw(90)) * time.Second)
			var want []*event.Instance
			for _, in := range sorted(name) {
				if !in.End.Before(from) && !in.Start.After(to) {
					want = append(want, in)
				}
			}
			same("Query", s.Query(name, from, to), want)
		default:
			cutoff := t0.Add(time.Duration(clock-60-draw(60)) * time.Second)
			for n, ins := range ref {
				kept := ins[:0]
				for _, in := range ins {
					if !in.End.Before(cutoff) {
						kept = append(kept, in)
					}
				}
				ref[n] = kept
			}
			settles0, moved0 := settles.Value(), moved.Value()
			s.EvictBefore(cutoff)
			if settles.Value() != settles0 || moved.Value() != moved0 {
				t.Fatalf("%s: EvictBefore settled (%d settles, %d rows moved)", label, settles.Value()-settles0, moved.Value()-moved0)
			}
		}
	}
	for name := range ref {
		same("All at the end", s.All(name), sorted(name))
	}
}

// TestSettleCostIsTheTailsReach: a late Put into a large in-order index
// displaces only what starts after it, and the two counters say so.
func TestSettleCostIsTheTailsReach(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r")
	for i := 0; i < 10000; i++ {
		s.Add(mk("e", i, 0, loc))
	}
	settles, moved := obs.GetCounter("store.lazy.resorts"), obs.GetCounter("store.lazy.resort.moved")
	settles0, moved0 := settles.Value(), moved.Value()
	s.All("e")
	if settles.Value() != settles0 {
		t.Fatal("an in-order load needed a settle")
	}
	late := s.Add(mk("e", 9996, 0, loc)) // ties with one, lands before three
	got := s.All("e")
	if got[9997].ID != late.ID || got[9996].ID != 9996 {
		t.Fatalf("the late instance landed at the wrong place: IDs %d, %d, %d around it", got[9996].ID, got[9997].ID, got[9998].ID)
	}
	if ds, dm := settles.Value()-settles0, moved.Value()-moved0; ds != 1 || dm != 4 {
		t.Errorf("settles %d, elements moved %d; want 1 and 4 (the tail and the three it displaced)", ds, dm)
	}
}

// TestSettleAllocatesNothing: a settle sorts and merges in place, so it
// allocates nothing however long its tail — one late row, a tail past the
// 16 rows a stack buffer once held, or as many rows as the prefix — and
// leaves the index the stable sort of its rows by Start.
func TestSettleAllocatesNothing(t *testing.T) {
	const prefix = 100000
	for _, tail := range []int{1, 17, 100000} {
		rng := rand.New(rand.NewSource(int64(tail)))
		n := prefix + tail
		starts, rows := make([]int64, n), make([]row, n)
		for i := range starts {
			starts[i], rows[i] = int64(i/3), row(i) // runs of ties
			if i >= prefix {
				starts[i] = rng.Int63n(prefix / 3) // late, tied with prefix rows
			}
		}
		idx := nameIndex{starts: make([]int64, n), rows: make([]row, n)}
		allocs := testing.AllocsPerRun(3, func() {
			copy(idx.starts, starts)
			copy(idx.rows, rows)
			idx.sorted = prefix
			idx.settle()
		})
		if allocs != 0 {
			t.Errorf("a settle of %d tail rows behind %d allocates %.0f times", tail, prefix, allocs)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return starts[want[i]] < starts[want[j]] })
		for i, w := range want {
			if idx.rows[i] != row(w) || idx.starts[i] != starts[w] {
				t.Fatalf("tail %d: position %d holds row %d at %d, the stable sort row %d at %d", tail, i, idx.rows[i], idx.starts[i], w, starts[w])
			}
		}
		if !idx.settled() {
			t.Fatalf("tail %d: the index is not settled", tail)
		}
	}
}

// BenchmarkEvictRetained is the store under -retention: a stream whose
// every fourth event is up to a minute late, over four names, with a
// window of 100k events that retention sweeps a quarter of at a time, and
// no read in between. B/evicted is what a sweep allocates per evicted
// event (the evict hooks' []Evicted, 32 B an event, and nothing else), and
// settles/sweep the index settles the sweeps ran (none: eviction filters
// a tail as it stands).
func BenchmarkEvictRetained(b *testing.B) {
	const window = 100000
	loc := locus.At(locus.Router, "r")
	names := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(1))
	s := New()
	s.SetRetention(window * time.Second)
	clock := 0
	one := make([]event.Instance, 1) // PutAll, unlike Add, returns no copy
	add := func() {
		at := clock
		if rng.Intn(4) == 0 {
			at -= rng.Intn(60)
		}
		start := t0.Add(time.Duration(at) * time.Second)
		one[0] = event.Instance{ID: clock, Name: names[clock%len(names)], Start: start, End: start, Loc: loc}
		if err := s.PutAll(one); err != nil {
			b.Fatal(err)
		}
		clock++
	}
	for clock < window*5/4 {
		add()
	}
	settles, evicted, sweeps := obs.GetCounter("store.lazy.resorts"), obs.GetCounter("store.evicted"), obs.GetCounter("store.evictions")
	settles0, evicted0, sweeps0 := settles.Value(), evicted.Value(), sweeps.Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for end := clock + window/4; clock < end; {
			add()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if n := evicted.Value() - evicted0; n > 0 {
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "B/evicted")
		b.ReportMetric(float64(settles.Value()-settles0)/float64(sweeps.Value()-sweeps0), "settles/sweep")
	}
}

// BenchmarkQueryAfterOutOfOrderPut is the paper's loop as the store sees
// it: each operation puts one in-order and one late event into an index
// of the given size and queries the recent window. The settle is the
// tail's reach, so ns/op is flat in the index size (it was a stable sort
// of the whole index).
func BenchmarkQueryAfterOutOfOrderPut(b *testing.B) {
	loc := locus.At(locus.Router, "r")
	for _, n := range []int{1e4, 1e6} {
		b.Run(fmt.Sprintf("%.0e", float64(n)), func(b *testing.B) {
			s := New()
			at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
			for i := 0; i < n; i++ {
				s.Add(event.Instance{Name: "e", Start: at(i), End: at(i), Loc: loc})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := n + i
				s.Add(event.Instance{Name: "e", Start: at(now), End: at(now), Loc: loc})
				s.Add(event.Instance{Name: "e", Start: at(now - 30), End: at(now - 30), Loc: loc})
				if got := s.Query("e", at(now-60), at(now)); len(got) < 60 {
					b.Fatalf("window holds %d events", len(got))
				}
			}
		})
	}
}

// BenchmarkStoreHeapPerEvent reports what a stored event costs, heap and
// mapped pages together (B/event) and the heap's share (heapB/event), for
// events shaped like the generated corpus's (corpusShaped; `go run
// ./bench`'s ledger stream has no attributes, so its
// store.heap_bytes_per_event row cannot show them).
func BenchmarkStoreHeapPerEvent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		heap, mapped := rowBytes(200000)
		b.ReportMetric(heap+mapped, "B/event")
		b.ReportMetric(heap, "heapB/event")
	}
}

// TestReadAllocations pins what a read costs the heap, on a settled index
// and on one whose tail the read must settle first under the write lock:
// Query, QueryAt and All allocate the result's one array of instances and
// one pointer slice over it (a window of at most 64 rows, which the scan
// collects on the stack), and CountStarts allocates nothing. A closure or
// a row buffer that escaped on the way to the index would show here.
func TestReadAllocations(t *testing.T) {
	loc := locus.At(locus.Router, "r")
	s := New()
	for _, m := range []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 3, 13, 23, 33} { // the last four late
		in := mk("e", m, 1, loc)
		in.Attrs = event.NewAttrs(map[string]string{"m": fmt.Sprint(m)})
		s.Add(in)
	}
	idx := s.index("e")
	if idx.settled() {
		t.Fatal("late adds left the index settled")
	}
	starts, rows, sorted := append([]int64(nil), idx.starts...), append([]row(nil), idx.rows...), idx.sorted
	from, to := t0, t0.Add(time.Hour)
	counts := make([]int, 4)
	reads := []struct {
		name  string
		want  float64
		read  func() int
		count int
	}{
		{"Query", 2, func() int { return len(s.Query("e", from, to)) }, 13},
		{"QueryAt", 2, func() int { return len(s.QueryAt("e", from, to, loc)) }, 13},
		{"All", 2, func() int { return len(s.All("e")) }, 13},
		{"CountStarts", 0, func() int {
			clear(counts)
			s.CountStarts("e", from, to, 15*time.Minute, counts)
			return counts[0] + counts[1] + counts[2] + counts[3]
		}, 13},
	}
	for _, r := range reads {
		for _, settled := range []bool{true, false} {
			unsettle := func() {
				if !settled {
					copy(idx.starts, starts)
					copy(idx.rows, rows)
					idx.sorted = sorted
				}
			}
			unsettle()
			if got := r.read(); got != r.count {
				t.Fatalf("%s (settled %v) reads %d instances, want %d", r.name, settled, got, r.count)
			}
			resorts := mLazyResorts.Value()
			allocs := testing.AllocsPerRun(20, func() {
				unsettle()
				r.read()
			})
			if allocs != r.want {
				t.Errorf("%s on a settled=%v index allocates %.0f times, want %.0f", r.name, settled, allocs, r.want)
			}
			if n := mLazyResorts.Value() - resorts; settled != (n == 0) {
				t.Errorf("%s on a settled=%v index settled it %d times", r.name, settled, n)
			}
		}
	}
}
