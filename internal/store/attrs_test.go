package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/obs"
)

// TestAttrsSlabs is FuzzStoreAttrs's op sequence drawn from seeded
// generators.
func TestAttrsSlabs(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		step := 0
		playAttrOps(t, fmt.Sprintf("seed %d", seed), func() bool { step++; return step <= 300 }, rng.Intn)
	}
}

// FuzzStoreAttrs plays byte-decoded Puts — sections that repeat, are
// empty, or are larger than a slab; forward gaps filled in later —
// EvictBefores and Replaces, and holds every live ID's attributes against
// a reference after each, and every attribute set read earlier against
// the bytes it read then.
func FuzzStoreAttrs(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, 400)
		rng.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		playAttrOps(t, "", func() bool { return len(data) > 0 }, func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		})
	})
}

// playAttrOps is the attribute slabs' contract. more says whether another
// op follows, and draw returns the next choice in [0, n).
func playAttrOps(t *testing.T, label string, more func() bool, draw func(n int) int) {
	t.Helper()
	loc := locus.At(locus.Router, "r")
	repeated := []event.Attrs{
		event.NewAttrs(map[string]string{"k": "v"}),
		event.NewAttrs(map[string]string{"": ""}),
		event.NewAttrs(map[string]string{"link": "link-0001", "metric": "10"}),
		event.NewAttrs(map[string]string{"msg": strings.Repeat("m", slabSize)}),
	}
	attrs := func(id int) event.Attrs {
		switch k := draw(8); {
		case k < 4:
			return repeated[k]
		case k == 4:
			return event.Attrs{}
		case k == 5:
			return event.NewAttrs(map[string]string{"big": strings.Repeat(fmt.Sprint(id%10), slabSize+draw(3*slabSize))})
		}
		return event.NewAttrs(map[string]string{"id": fmt.Sprint(id), "pad": strings.Repeat("p", draw(200))})
	}

	s := New()
	want := map[int]event.Attrs{} // every live ID's attributes
	var holes []int               // IDs a forward gap skipped, to fill later
	type read struct {
		a   event.Attrs
		sec string
	}
	var held []read // attribute sets read earlier, with the bytes read then
	clock, next := 0, 0
	put := func(id int) {
		clock += draw(3)
		at := t0.Add(time.Duration(clock) * time.Second)
		in := event.Instance{ID: id, Name: "e", Start: at, End: at.Add(time.Duration(draw(60)) * time.Second), Loc: loc, Attrs: attrs(id)}
		if _, err := s.Put(in); err != nil {
			t.Fatalf("%s: Put(%d): %v", label, id, err)
		}
		want[id] = in.Attrs
	}
	for more() {
		switch op := draw(20); {
		case op < 10:
			put(next)
			next++
		case op < 12:
			// A forward gap, some of whose IDs are filled later.
			gap := 1 + draw(2*chunkSize)
			for i := draw(3); i > 0; i-- {
				holes = append(holes, next+draw(gap))
			}
			next += gap
			put(next)
			next++
		case op < 14:
			if len(holes) == 0 {
				continue
			}
			id := holes[len(holes)-1]
			holes = holes[:len(holes)-1]
			if _, taken := want[id]; !taken && id >= s.base {
				put(id)
			}
		case op < 16:
			cutoff := t0.Add(time.Duration(clock-draw(120)) * time.Second)
			s.EvictBefore(cutoff)
			for id := range want {
				if in, ok := s.Get(id); !ok {
					delete(want, id)
				} else if in.End.Before(cutoff) {
					t.Fatalf("%s: ID %d ends at %v, before the cutoff %v, and was not evicted", label, id, in.End, cutoff)
				}
			}
		case op < 18:
			// A checkpoint install: the store's own content, or nothing.
			base, end, dump := s.base, s.next, []event.Instance(nil)
			if err := s.SnapshotTo(func(int, int, int) error { return nil }, func(in *event.Instance) error {
				dump = append(dump, *in)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if draw(4) == 0 {
				base, end, dump = next, next, nil
				clear(want)
			}
			if err := replaceWith(s, base, end, dump); err != nil {
				t.Fatalf("%s: Replace: %v", label, err)
			}
		default:
			if in, ok := s.Get(next - 1 - draw(64)); ok && len(held) < 64 {
				held = append(held, read{in.Attrs, string(in.Attrs.AppendSection(nil))})
			}
		}
		for id, a := range want {
			in, ok := s.Get(id)
			if !ok || in.Attrs != a {
				t.Fatalf("%s: ID %d reads attributes %q (found %v), stored %q", label, id, in.Attrs.AppendSection(nil), ok, a.AppendSection(nil))
			}
		}
		for i, h := range held {
			if got := string(h.a.AppendSection(nil)); got != h.sec {
				t.Fatalf("%s: attributes read earlier (%d) changed from %q to %q", label, i, h.sec, got)
			}
		}
		checkMappings(t, s)
	}
}

// settledAttrBytes returns store.attrs.bytes once the finalizers of
// stores already dropped have stopped changing it.
func settledAttrBytes(g *obs.Gauge) int64 {
	prev := int64(-1)
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		v := g.Value()
		if v == prev {
			break
		}
		prev = v
	}
	return prev
}

// TestAttrBytesGauge: store.attrs.bytes is the slab bytes the process's
// stores hold. It rises when a Put brings a section, and falls back when
// an empty checkpoint install (Replace with nil) or an eviction of every
// event drops the store's slabs.
func TestAttrBytesGauge(t *testing.T) {
	g := obs.GetGauge("store.attrs.bytes")
	if v := settledAttrBytes(g); v != 0 {
		t.Fatalf("with no store alive store.attrs.bytes reads %d", v)
	}
	loc := locus.At(locus.Router, "r")
	s := New()
	for _, empty := range []func(){
		func() { s.Replace(0, 0, nil) }, //nolint:errcheck // empty bounds always install
		func() { s.EvictBefore(event.MaxTime) },
	} {
		at := t0
		s.Add(event.Instance{Name: "e", Start: at, End: at, Loc: loc})
		if v := g.Value(); v != 0 {
			t.Fatalf("an event without attributes took store.attrs.bytes to %d", v)
		}
		for i := 0; i < 3*chunkSize; i++ {
			at = at.Add(time.Second)
			before := g.Value()
			s.Add(event.Instance{Name: "e", Start: at, End: at, Loc: loc, Attrs: event.NewAttrs(map[string]string{"i": fmt.Sprint(i)})})
			if v := g.Value(); v < before || (i == 0 && v != slabSize) {
				t.Fatalf("Put %d took store.attrs.bytes from %d to %d", i, before, v)
			}
		}
		if v := g.Value(); v != int64(s.mem.slabs) || v < 3*slabSize {
			t.Fatalf("store.attrs.bytes reads %d for a store holding %d bytes of slabs", v, s.mem.slabs)
		}
		empty()
		if v := g.Value(); v != 0 || s.mem.slabs != 0 {
			t.Fatalf("an emptied store leaves store.attrs.bytes at %d, its arena counting %d", v, s.mem.slabs)
		}
	}
}
