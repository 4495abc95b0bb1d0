package store

import (
	"fmt"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// evictionStream builds a deterministic event stream spread over many
// locations (so a sharded store splits it) and a long time range (so
// retention actually evicts).
func evictionStream(n int) []event.Instance {
	t0 := time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)
	ins := make([]event.Instance, n)
	for i := range ins {
		at := t0.Add(time.Duration(i) * time.Minute)
		ins[i] = event.Instance{
			Name:  fmt.Sprintf("ev%d", i%3),
			Start: at, End: at.Add(30 * time.Second),
			Loc: locus.At(locus.Router, fmt.Sprintf("r%d", i%17)),
		}
	}
	return ins
}

// TestShardedEvictionRetentionParity pins the sharded store's retention
// semantics against the single store's. Each shard auto-evicts by its
// own local span with its own amortization phase, so the two stores may
// transiently hold different amounts of already-expired slack — but
// neither may ever drop an event still inside the retention window of
// the global head (every sweep's cutoff is its local head minus the
// window, and no local head is ahead of the global one). After an
// explicit EvictBefore at the same cutoff (what the server's retention
// sweep amounts to at a quiescent point), the two must hold the
// identical live instances and allocator frontier.
func TestShardedEvictionRetentionParity(t *testing.T) {
	const retention = 2 * time.Hour
	ins := evictionStream(600) // 10 hours of minutes

	single := New()
	single.SetRetention(retention)
	sharded := NewSharded(4)
	sharded.SetRetention(retention)
	if sharded.Retention() != retention {
		t.Fatalf("sharded retention = %v", sharded.Retention())
	}
	for _, in := range ins {
		single.Add(in)
		sharded.Add(in)
	}

	_, last, ok := single.Span()
	if !ok {
		t.Fatal("empty single store")
	}
	windowCut := last.Add(-retention)

	liveIDs := func(st Store) map[int]event.Instance {
		m := map[int]event.Instance{}
		for _, name := range st.Names() {
			for _, in := range st.All(name) {
				m[in.ID] = *in
			}
		}
		return m
	}
	sl, shl := liveIDs(single), liveIDs(sharded)
	if len(sl) == len(ins) || len(shl) == len(ins) {
		t.Fatal("retention never evicted — the parity below would be vacuous")
	}
	// No event inside the global retention window may be missing.
	for i, in := range ins {
		if in.End.Before(windowCut) {
			continue
		}
		if _, ok := sl[i]; !ok {
			t.Fatalf("single store evicted in-window event %d", i)
		}
		if _, ok := shl[i]; !ok {
			t.Fatalf("sharded store evicted in-window event %d", i)
		}
	}

	// Converge both with an explicit sweep at the same cutoff: from here
	// the stores must be indistinguishable (bases aside, which encode
	// per-shard eviction history).
	single.EvictBefore(windowCut)
	sharded.EvictBefore(windowCut)
	sl, shl = liveIDs(single), liveIDs(sharded)
	if len(sl) != len(shl) {
		t.Fatalf("post-sweep live counts differ: single %d, sharded %d", len(sl), len(shl))
	}
	for id, want := range sl {
		got, ok := shl[id]
		if !ok {
			t.Fatalf("post-sweep: event %d missing from sharded", id)
		}
		if got.Name != want.Name || !got.Start.Equal(want.Start) || !got.End.Equal(want.End) || got.Loc != want.Loc {
			t.Fatalf("post-sweep: event %d differs: %+v vs %+v", id, got, want)
		}
	}
	if single.NextID() != sharded.NextID() {
		t.Fatalf("allocator frontiers differ: single %d, sharded %d", single.NextID(), sharded.NextID())
	}
	if single.Len() != sharded.Len() {
		t.Fatalf("Len differs: single %d, sharded %d", single.Len(), sharded.Len())
	}
}
