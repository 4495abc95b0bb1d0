package epoch

import (
	"errors"
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

func newTestMemo() (*Memo[int64, string, int], *obs.Counter, *obs.Counter) {
	hits, misses := new(obs.Counter), new(obs.Counter)
	return NewMemo[int64, string, int](hits, misses), hits, misses
}

// TestMemoGenerations: answers hold within a generation, a table from
// another generation is replaced whole, and Drop empties the current one.
func TestMemoGenerations(t *testing.T) {
	m, hits, misses := newTestMemo()
	fills := 0
	get := func(gen int64, key string) int {
		t.Helper()
		v, err := m.Get(gen, key, func() (int, error) { fills++; return fills, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := get(1, "k"), get(1, "k"); a != 1 || b != 1 {
		t.Fatalf("same generation: %d, %d; want 1 from one fill", a, b)
	}
	if v := get(2, "k"); v != 2 {
		t.Fatalf("next generation served %d, want a refill (2)", v)
	}
	if v := get(1, "k"); v != 3 {
		t.Fatalf("returning to generation 1 served %d, want a refill (3): its table is gone", v)
	}
	m.Drop()
	if v := get(1, "k"); v != 4 {
		t.Fatalf("after Drop served %d, want a refill (4)", v)
	}
	if hits.Value() != 1 || misses.Value() != 4 {
		t.Fatalf("hits/misses = %d/%d, want 1/4", hits.Value(), misses.Value())
	}
}

// TestMemoKeepsErrors: an error is an answer like any other, kept with
// its value and returned verbatim — the same error, not a copy — to every
// later caller of the generation.
func TestMemoKeepsErrors(t *testing.T) {
	m, hits, misses := newTestMemo()
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
// reader sees must be its key's.
func TestMemoConcurrent(t *testing.T) {
	m, _, _ := newTestMemo()
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
}
