package store

import (
	"fmt"
	"math/rand"
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
// across restarts and replicas rests on.
func TestIndexSettleEqualsStableSort(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
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
				t.Fatalf("seed %d: %s returned %d instances, the reference %d", seed, what, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("seed %d: %s[%d] is ID %d at %v, the reference has ID %d at %v",
						seed, what, i, got[i].ID, got[i].Start, want[i].ID, want[i].Start)
				}
			}
		}
		clock := 0 // seconds; advances, so that most Puts are in order
		for step := 0; step < 600; step++ {
			name := []string{"a", "b"}[rng.Intn(2)]
			switch op := rng.Intn(20); {
			case op < 14:
				// Few distinct Starts, so ties are common; one Put in four
				// lands up to a minute behind the clock.
				clock += rng.Intn(3)
				at := clock
				if rng.Intn(4) == 0 {
					at -= rng.Intn(60)
				}
				in := event.Instance{Name: name, Loc: locus.At(locus.Router, "r"),
					Start: t0.Add(time.Duration(at) * time.Second)}
				in.End = in.Start.Add(time.Duration(rng.Intn(90)) * time.Second)
				ref[name] = append(ref[name], s.Add(in))
			case op < 16:
				same("All", s.All(name), sorted(name))
			case op < 19:
				from := t0.Add(time.Duration(clock-rng.Intn(120)) * time.Second)
				to := from.Add(time.Duration(rng.Intn(90)) * time.Second)
				var want []*event.Instance
				for _, in := range sorted(name) {
					if !in.End.Before(from) && !in.Start.After(to) {
						want = append(want, in)
					}
				}
				same("Query", s.Query(name, from, to), want)
			default:
				cutoff := t0.Add(time.Duration(clock-60-rng.Intn(60)) * time.Second)
				for n, ins := range ref {
					kept := ins[:0]
					for _, in := range ins {
						if !in.End.Before(cutoff) {
							kept = append(kept, in)
						}
					}
					ref[n] = kept
				}
				s.EvictBefore(cutoff)
			}
		}
		for name := range ref {
			same("All at the end", s.All(name), sorted(name))
		}
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
