package store

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// naiveCounts is CountStarts by a scan of every live instance of name,
// for windows shorter than a Duration reaches.
func naiveCounts(s *Memory, name string, from, to time.Time, bin time.Duration, n int) []int {
	counts := make([]int, n)
	for _, in := range s.All(name) {
		if in.Start.Before(from) || !in.Start.Before(to) {
			continue
		}
		if i := int(in.Start.Sub(from) / bin); i < n {
			counts[i]++
		}
	}
	return counts
}

// TestCountStarts: CountStarts adds to counts exactly what a scan of the
// live instances counts — for an unknown name (nothing), after eviction
// (the live rows only), over an unsettled tail (which the read settles),
// and with starts past the last bin (not counted) — without touching the
// query path.
func TestCountStarts(t *testing.T) {
	loc := locus.At(locus.Router, "r")
	s := New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		at := t0.Add(time.Duration(rng.Int63n(int64(48 * time.Hour))))
		if i%2 == 0 { // on a bin's edge, or the window's
			at = at.Truncate(time.Minute)
		}
		s.Add(event.Instance{Name: "a", Start: at, End: at.Add(time.Minute), Loc: loc})
		if i%3 == 0 {
			s.Add(event.Instance{Name: "b", Start: at, End: at, Loc: loc})
		}
	}

	edge := t0.Add(30 * time.Hour) // a start on the window's end
	s.Add(event.Instance{Name: "a", Start: edge, End: edge, Loc: loc})

	counts := []int{7}
	s.CountStarts("nosuch", t0, t0.Add(time.Hour), time.Hour, counts)
	if counts[0] != 7 {
		t.Fatalf("an unknown name changed counts to %v", counts)
	}

	// Random insertion left an unsettled tail: the count settles it.
	if s.index("a").settled() {
		t.Fatal("the random fill left no unsettled tail")
	}
	resorts := mLazyResorts.Value()
	results := mQueryResults.Snapshot().Count
	check := func(what string, from, to time.Time, bin time.Duration, n int) {
		t.Helper()
		got := make([]int, n)
		got[0] = 1
		s.CountStarts("a", from, to, bin, got)
		got[0]--
		if want := naiveCounts(s, "a", from, to, bin, n); !slices.Equal(got, want) {
			t.Fatalf("%s: CountStarts %v\nnaive scan   %v", what, got, want)
		}
	}
	check("the whole span", t0, t0.Add(48*time.Hour), time.Hour, 48)
	if !s.index("a").settled() || mLazyResorts.Value() != resorts+1 {
		t.Fatalf("CountStarts over an unsettled tail: settled %v, %d resorts", s.index("a").settled(), mLazyResorts.Value()-resorts)
	}
	if mQueryResults.Snapshot().Count != results {
		t.Fatal("CountStarts went through the query path")
	}
	check("starts past the last bin", t0.Add(3*time.Hour), t0.Add(40*time.Hour), 7*time.Minute, 20)
	check("off the minute", t0.Add(90*time.Second+time.Millisecond), t0.Add(30*time.Hour+17*time.Second), 2*time.Minute, 900)
	check("up to a start", t0, edge, time.Hour, 31)
	check("bins off the second", t0.Add(333*time.Millisecond), t0.Add(2*time.Hour), 1500*time.Millisecond, 4000)
	check("one wide bin", t0.Add(-time.Hour), t0.Add(72*time.Hour), 24*time.Hour, 1)

	// After eviction only the live rows count.
	cutoff := t0.Add(20 * time.Hour)
	if s.EvictBefore(cutoff) == 0 {
		t.Fatal("nothing evicted")
	}
	check("after eviction", t0, t0.Add(48*time.Hour), time.Hour, 48)

	// Nothing counts for an empty window, a non-positive bin or no bins.
	for _, c := range []struct {
		from, to time.Time
		bin      time.Duration
		n        int
	}{{t0, t0, time.Hour, 1}, {t0.Add(time.Hour), t0, time.Hour, 1}, {t0, t0.Add(48 * time.Hour), 0, 1}, {t0, t0.Add(48 * time.Hour), time.Hour, 0}} {
		counts := make([]int, c.n)
		s.CountStarts("a", c.from, c.to, c.bin, counts)
		if slices.ContainsFunc(counts, func(n int) bool { return n != 0 }) {
			t.Fatalf("from %v to %v bin %v counted %v", c.from, c.to, c.bin, counts)
		}
	}
}

// TestCountStartsAtTheEdges: the first and last representable instants
// count, whether the window ends inside the representable range or
// beyond it, and a grid origin centuries before event.MinTime, farther
// than a Duration reaches, still places each start in its bin.
func TestCountStartsAtTheEdges(t *testing.T) {
	s := New()
	for _, at := range []time.Time{event.MinTime, event.MinTime.Add(time.Minute), event.MaxTime.Add(-time.Minute), event.MaxTime} {
		s.Add(event.Instance{Name: "e", Start: at, End: at})
	}
	counts := make([]int, 2)
	s.CountStarts("e", event.MaxTime.Add(-2*time.Minute), event.MaxTime, time.Minute, counts)
	if !slices.Equal(counts, []int{0, 1}) {
		t.Errorf("up to MaxTime, exclusive: %v, want [0 1]", counts)
	}
	counts = make([]int, 3)
	s.CountStarts("e", event.MaxTime.Add(-2*time.Minute), event.MaxTime.Add(time.Minute), time.Minute, counts)
	if !slices.Equal(counts, []int{0, 1, 1}) {
		t.Errorf("past MaxTime: %v, want [0 1 1]", counts)
	}
	clear(counts)
	s.CountStarts("e", event.MinTime, event.MinTime.Add(2*time.Minute), time.Minute, counts)
	if !slices.Equal(counts, []int{1, 1, 0}) {
		t.Errorf("from MinTime: %v, want [1 1 0]", counts)
	}
	// Year 1 to MaxTime in bins of 1000 days: MinTime (1677) and
	// MaxTime (2262) are ~612k and ~826k days out.
	from := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	bin := 1000 * 24 * time.Hour
	counts = make([]int, 1000)
	s.CountStarts("e", from, event.MaxTime.Add(time.Second), bin, counts)
	want := make([]int, 1000)
	for _, at := range []time.Time{event.MinTime, event.MinTime.Add(time.Minute), event.MaxTime.Add(-time.Minute), event.MaxTime} {
		want[(at.Unix()-from.Unix())/int64(bin/time.Second)]++
	}
	if !slices.Equal(counts, want) {
		t.Errorf("from year 1: %v\nwant %v", counts, want)
	}
	// A window past every start counts nothing.
	clear(counts)
	s.CountStarts("e", event.MaxTime.Add(time.Second), event.MaxTime.Add(time.Hour), time.Minute, counts)
	if slices.ContainsFunc(counts, func(n int) bool { return n != 0 }) {
		t.Errorf("a window after MaxTime counted %v", counts)
	}
}
