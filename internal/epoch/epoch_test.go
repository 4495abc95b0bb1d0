package epoch

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grca/internal/obs"
)

var t0 = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

// TestClock: an instant recorded twice opens one epoch, an instant
// recorded out of order is inserted in order, and every record — a
// repeated instant included — advances the generation.
func TestClock(t *testing.T) {
	var c Clock
	if c.At(t0) != 0 || c.Len() != 0 || c.Generation() != 0 {
		t.Fatalf("empty clock: At=%d Len=%d Generation=%d", c.At(t0), c.Len(), c.Generation())
	}
	for i, at := range []time.Time{
		t0.Add(2 * time.Minute),
		t0.Add(2 * time.Minute), // same instant: no new epoch
		t0.Add(time.Minute),     // earlier than the last: inserted before it
		t0.Add(3 * time.Minute),
	} {
		c.Record(at)
		if got := c.Generation(); got != int64(i+1) {
			t.Fatalf("after record %d: Generation = %d, want %d", i, got, i+1)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct instants", c.Len())
	}
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Second, 0}, {0, 0}, {time.Minute, 1}, {90 * time.Second, 1},
		{2 * time.Minute, 2}, {3 * time.Minute, 3}, {time.Hour, 3},
	} {
		if got := c.At(t0.Add(tc.at)); got != tc.want {
			t.Errorf("At(t0%+v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

func newTestMemo() (*Memo[int64, string, int], *obs.Counter, *obs.Counter, *obs.Gauge) {
	hits, misses, entries := new(obs.Counter), new(obs.Counter), new(obs.Gauge)
	return NewMemo[int64, string, int](hits, misses, entries), hits, misses, entries
}

// TestMemoGenerations: answers hold within a generation, a table from
// another generation is replaced whole, and Drop empties the current one.
// The entries gauge rises on each first store and falls back to zero
// with the table it counts.
func TestMemoGenerations(t *testing.T) {
	m, hits, misses, entries := newTestMemo()
	fills := 0
	get := func(gen int64, key string) int {
		t.Helper()
		v, err := m.Get(gen, key, func() (int, error) { fills++; return fills, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	wantEntries := func(when string, want int64) {
		t.Helper()
		if got := entries.Value(); got != want {
			t.Fatalf("%s: entries = %d, want %d", when, got, want)
		}
	}
	if a, b := get(1, "k"), get(1, "k"); a != 1 || b != 1 {
		t.Fatalf("same generation: %d, %d; want 1 from one fill", a, b)
	}
	wantEntries("one key, asked twice", 1)
	get(1, "j")
	wantEntries("two keys", 2)
	if v := get(2, "k"); v != 3 {
		t.Fatalf("next generation served %d, want a refill (3)", v)
	}
	wantEntries("after the generation swap", 1)
	if v := get(1, "k"); v != 4 {
		t.Fatalf("returning to generation 1 served %d, want a refill (4): its table is gone", v)
	}
	m.Drop()
	wantEntries("after Drop", 0)
	if v := get(1, "k"); v != 5 {
		t.Fatalf("after Drop served %d, want a refill (5)", v)
	}
	wantEntries("after the refill", 1)
	if hits.Value() != 1 || misses.Value() != 5 {
		t.Fatalf("hits/misses = %d/%d, want 1/5", hits.Value(), misses.Value())
	}
}

// TestMemoFirstStoreStays: two misses on one key that race each fill,
// and both callers get the answer stored first; the second is counted
// as a miss but not as an entry.
func TestMemoFirstStoreStays(t *testing.T) {
	m, _, misses, entries := newTestMemo()
	var inner int
	outer, err := m.Get(1, "k", func() (int, error) {
		// A second miss on the same key completes while the first is
		// still filling.
		inner, _ = m.Get(1, "k", func() (int, error) { return 1, nil })
		return 2, nil
	})
	if err != nil || inner != 1 || outer != 1 {
		t.Fatalf("racing misses answered %d and %d (%v); want the first stored, 1, for both", inner, outer, err)
	}
	if misses.Value() != 2 || entries.Value() != 1 {
		t.Fatalf("misses/entries = %d/%d, want 2/1", misses.Value(), entries.Value())
	}
}

// TestMemoKeepsErrors: an error is an answer like any other, kept with
// its value and returned verbatim — the same error, not a copy — to every
// later caller of the generation.
func TestMemoKeepsErrors(t *testing.T) {
	m, hits, misses, _ := newTestMemo()
	first := errors.New("no route at the first instant asked")
	if v, err := m.Get(1, "k", func() (int, error) { return 7, first }); v != 7 || err != first {
		t.Fatalf("miss = %d, %v; want the fill's 7, %v", v, err, first)
	}
	v, err := m.Get(1, "k", func() (int, error) {
		t.Fatal("fill ran on a hit")
		return 0, nil
	})
	if v != 7 || err != first {
		t.Fatalf("hit = %d, %v; want the memoized 7, %v", v, err, first)
	}
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits.Value(), misses.Value())
	}
}

// TestMemoConcurrent runs readers beside a writer that keeps moving the
// generation and dropping the table; run it with -race. Every answer a
// reader sees must be its key's, and once the dust settles the entries
// gauge counts the live table alone: no store that lost a race with a
// swap or a Drop is left on it.
func TestMemoConcurrent(t *testing.T) {
	m, _, _, entries := newTestMemo()
	keys := []string{"a", "bb", "ccc", "dddd"}
	var gen atomic.Int64 // stands in for a Clock's generation
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys[i%len(keys)]
				v, err := m.Get(gen.Load(), k, func() (int, error) { return len(k), nil })
				if err != nil || v != len(k) {
					t.Errorf("Get(%q) = %d, %v; want %d", k, v, err, len(k))
					return
				}
			}
		}()
	}
	go func() {
		defer close(done)
		for g := int64(1); g <= 200; g++ {
			gen.Store(g)
			if g%10 == 0 {
				m.Drop()
			}
		}
	}()
	wg.Wait()
	<-done
	if got := entries.Value(); got < 0 || got > int64(len(keys)) {
		t.Fatalf("entries = %d after the race, want at most the live table's %d keys", got, len(keys))
	}
	last := gen.Load()
	for _, k := range keys {
		if _, err := m.Get(last, k, func() (int, error) { return len(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := entries.Value(); got != int64(len(keys)) {
		t.Fatalf("entries = %d with every key stored in the live table, want %d", got, len(keys))
	}
	m.Drop()
	if got := entries.Value(); got != 0 {
		t.Fatalf("entries = %d after Drop, want 0", got)
	}
}

// TestMemoGarbageLeavesGauge: a memo nothing references any more takes
// its entries off the gauge it shares, so a process that replaced a view
// reports what the live one holds.
func TestMemoGarbageLeavesGauge(t *testing.T) {
	entries := new(obs.Gauge)
	func() {
		m := NewMemo[int64, string, int](new(obs.Counter), new(obs.Counter), entries)
		for _, k := range []string{"a", "b", "c"} {
			if _, err := m.Get(1, k, func() (int, error) { return 0, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}()
	if got := entries.Value(); got != 3 {
		t.Fatalf("entries = %d with the memo live, want 3", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for entries.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("entries = %d long after the memo became garbage, want 0", entries.Value())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
