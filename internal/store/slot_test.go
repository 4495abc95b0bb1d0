package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"grca/internal/event"
	"grca/internal/locus"
)

// TestSlotSize pins the row: a 24-byte slot without a pointer in it — so
// that the collector never scans the chunks — beside a 4-byte attribute
// column entry, 28 bytes an event.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Errorf("slot is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(slot{}) + unsafe.Sizeof(attrColumn{})/chunkSize; got != 28 {
		t.Errorf("a row with its attribute reference is %d bytes, want 28", got)
	}
	st := reflect.TypeOf(slot{})
	for i := 0; i < st.NumField(); i++ {
		if k := st.Field(i).Type.Kind(); k != reflect.Int64 && k != reflect.Uint32 {
			t.Errorf("slot field %s is a %v: a slot must hold no pointer", st.Field(i).Name, k)
		}
	}
}

// randomInstance draws an instance over the whole representable range,
// edges included, with and without attributes and a second location part.
func randomInstance(rng *rand.Rand) event.Instance {
	span := event.MaxTime.UnixNano()
	instant := func() time.Time {
		switch rng.Intn(6) {
		case 0:
			return event.MinTime
		case 1:
			return event.MaxTime
		}
		return time.Unix(0, rng.Int63n(span)-rng.Int63n(span)).UTC()
	}
	in := event.Instance{
		Name:  fmt.Sprintf("event-%d", rng.Intn(5)),
		Start: instant(),
		Loc:   locus.At(locus.Router, fmt.Sprintf("r%d", rng.Intn(20))),
	}
	in.End = instant()
	if in.End.Before(in.Start) {
		in.Start, in.End = in.End, in.Start
	}
	if rng.Intn(2) == 0 {
		in.Loc = locus.Between(locus.Interface, in.Loc.A, fmt.Sprintf("if%d", rng.Intn(4)))
	}
	if rng.Intn(2) == 0 {
		in.Attrs = event.NewAttrs(map[string]string{"k": fmt.Sprint(rng.Intn(100)), "msg": "x"})
	}
	return in
}

func sameInstance(a, b *event.Instance) bool {
	return a.ID == b.ID && a.Name == b.Name && a.Start.Equal(b.Start) && a.End.Equal(b.End) &&
		a.Loc == b.Loc && a.Attrs == b.Attrs
}

// TestSlotRoundTrip: whatever goes in comes back field for field through
// every read — Get, All, Query, ScanAfter and a Cut — across the whole
// representable range (event.MinTime and MaxTime included), with empty
// and non-empty attributes and locations of one and two parts, and every
// instant comes back in UTC. Every event of the third chunk has
// attributes and none of the fourth, so the reads cross from a chunk with
// an attribute column to one without.
func TestSlotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	want := map[int]event.Instance{}
	for id := 0; id < 4*chunkSize; id += 1 + rng.Intn(3) {
		in := randomInstance(rng)
		switch id / chunkSize {
		case 2:
			in.Attrs = event.NewAttrs(map[string]string{"id": fmt.Sprint(id)})
		case 3:
			in.Attrs = event.Attrs{}
		}
		in.ID = id
		if _, err := s.Put(in); err != nil {
			t.Fatal(err)
		}
		want[id] = in
	}
	check := func(what string, got *event.Instance) {
		t.Helper()
		w, ok := want[got.ID]
		if !ok || !sameInstance(got, &w) {
			t.Fatalf("%s returned %+v, stored %+v", what, *got, w)
		}
		if got.Start.Location() != time.UTC || got.End.Location() != time.UTC {
			t.Fatalf("%s returned instants in %v/%v, not UTC", what, got.Start.Location(), got.End.Location())
		}
	}
	for id := range want {
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("Get(%d) found nothing", id)
		}
		check("Get", got)
	}
	n := 0
	for _, name := range s.Names() {
		for _, in := range s.All(name) {
			check("All", in)
			n++
		}
		for _, in := range s.Query(name, event.MinTime, event.MaxTime) {
			check("Query", in)
		}
	}
	scanned, _ := s.ScanAfter("", -1, len(want))
	for _, in := range scanned {
		check("ScanAfter", in)
	}
	if n != len(want) || len(scanned) != len(want) {
		t.Fatalf("All saw %d and ScanAfter %d of %d instances", n, len(scanned), len(want))
	}
	if err := s.SnapshotTo(func(int, int, int) error { return nil }, func(in *event.Instance) error {
		check("SnapshotTo", in)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReadsAreCopies: a read hands out instances its caller owns.
// Rewriting every field of what Get, Query, QueryAt, All and ScanAfter
// returned changes nothing the store answers next.
func TestReadsAreCopies(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r1")
	for i := 0; i < 10; i++ {
		in := mk("e", i, 1, loc)
		in.Attrs = event.NewAttrs(map[string]string{"i": fmt.Sprint(i)})
		s.Add(in)
	}
	snapshot := func() []event.Instance {
		var out []event.Instance
		for _, in := range s.All("e") {
			out = append(out, *in)
		}
		return out
	}
	before := snapshot()
	scribble := func(ins ...*event.Instance) {
		for _, in := range ins {
			*in = event.Instance{ID: -1, Name: "scribbled", Start: t0.Add(time.Hour), End: t0.Add(time.Hour),
				Loc: locus.At(locus.Router, "elsewhere"), Attrs: event.NewAttrs(map[string]string{"x": "y"})}
		}
	}
	got, _ := s.Get(3)
	scribble(got)
	scribble(s.Query("e", t0, t0.Add(time.Hour))...)
	scribble(s.QueryAt("e", t0, t0.Add(time.Hour), loc)...)
	scribble(s.All("e")...)
	scanned, _ := s.ScanAfter("e", -1, 100)
	scribble(scanned...)
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("the store holds %d instances after its reads were rewritten, %d before", len(after), len(before))
	}
	for i := range before {
		if !sameInstance(&after[i], &before[i]) {
			t.Fatalf("instance %d reads %+v after its copies were rewritten, %+v before", i, after[i], before[i])
		}
	}
	if got := s.QueryAt("e", t0, t0.Add(time.Hour), locus.At(locus.Router, "elsewhere")); got != nil {
		t.Fatalf("QueryAt found %d instances at a location only a rewritten copy names", len(got))
	}
}

// TestPutRefusesOutOfRange: an instant the int64-nanosecond slot cannot
// hold is refused with event.ErrTimeRange — by Put, by PutAll (which stops
// there and names the refused ID, as WAL replay reports it) and by
// Replace — and leaves nothing behind; it is never wrapped around.
func TestPutRefusesOutOfRange(t *testing.T) {
	loc := locus.At(locus.Router, "r")
	for _, bad := range []event.Instance{
		{Name: "e", Start: event.MinTime.Add(-time.Nanosecond), End: t0, Loc: loc},
		{Name: "e", Start: t0, End: event.MaxTime.Add(time.Nanosecond), Loc: loc},
		{Name: "e", Start: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), Loc: loc},
		{Name: "e", Loc: loc}, // the zero time is year 1
	} {
		s := New()
		if _, err := s.Put(bad); !errors.Is(err, event.ErrTimeRange) {
			t.Errorf("Put(%v..%v) = %v, want event.ErrTimeRange", bad.Start, bad.End, err)
		}
		good := mk("e", 0, 1, loc)
		bad.ID, good.ID = 1, 0
		if err := s.PutAll([]event.Instance{good, bad, mk("e", 2, 1, loc)}); !errors.Is(err, event.ErrTimeRange) ||
			!strings.Contains(err.Error(), "ID 1:") {
			t.Errorf("PutAll = %v, want event.ErrTimeRange naming the refused ID 1", err)
		}
		if s.Len() != 1 || s.NextID() != 1 || s.Count("e") != 1 {
			t.Errorf("after the refusals the store holds %d events, next ID %d", s.Len(), s.NextID())
		}
		if err := replaceWith(New(), 0, 2, []event.Instance{bad}); !errors.Is(err, event.ErrTimeRange) {
			t.Errorf("Replace = %v, want event.ErrTimeRange", err)
		}
	}
}

// TestPutRefusesIDSpan: an index holds 32-bit rows, so an ID 2^32 or more
// above the oldest one the store spans is refused, by Put and by
// Replace, before anything is allocated for it; an emptied store starts
// its span over.
func TestPutRefusesIDSpan(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r")
	first := mk("e", 0, 1, loc)
	if _, err := s.Put(first); err != nil {
		t.Fatal(err)
	}
	far := mk("e", 1, 1, loc)
	far.ID = 1 << 32
	if _, err := s.Put(far); err == nil || s.Len() != 1 || s.NextID() != 1 || len(s.chunks) != 1 {
		t.Fatalf("Put 2^32 IDs ahead = %v; store holds %d events, next %d, %d chunks", err, s.Len(), s.NextID(), len(s.chunks))
	}
	if err := replaceWith(New(), 0, far.ID+1, []event.Instance{first, far}); err == nil {
		t.Fatal("Replace took an ID 2^32 above its base")
	}
	s.EvictBefore(event.MaxTime)
	if _, err := s.Put(far); err != nil || s.Len() != 1 {
		t.Fatalf("Put into the emptied store = %v, %d events", err, s.Len())
	}
}

// TestEvictPastAllocatedChunks: a restored range whose next ID lies
// chunks beyond its last event empties cleanly, and the store goes on
// from next.
func TestEvictPastAllocatedChunks(t *testing.T) {
	s := New()
	in := mk("e", 0, 1, locus.At(locus.Router, "r"))
	if err := replaceWith(s, 0, 5*chunkSize, []event.Instance{in}); err != nil {
		t.Fatal(err)
	}
	if s.EvictBefore(event.MaxTime) != 1 {
		t.Fatal("the restored event was not evicted")
	}
	if got := s.Add(in); got.ID != 5*chunkSize || s.Len() != 1 {
		t.Fatalf("after the eviction Add took ID %d, %d events", got.ID, s.Len())
	}
	checkInternTables(t, s)
}

// checkInternTables holds the intern tables against the live slots: every
// entry is referenced by a live slot — the location refcounts exactly —
// every live slot's entries exist, and freed entries are zero and listed
// free.
func checkInternTables(t *testing.T, s *Memory) {
	t.Helper()
	locRefs := map[uint32]int{}
	nameRefs := map[uint32]int{}
	for id := s.base; id < s.next; id++ {
		if r, ok := s.lookup(id); ok {
			locRefs[s.slot(r).loc]++
			nameRefs[s.slot(r).name]++
		}
	}
	if len(s.locIDs) != len(locRefs) {
		t.Fatalf("the location table holds %d entries, live slots reference %d", len(s.locIDs), len(locRefs))
	}
	for loc, id := range s.locIDs {
		if s.locs[id].loc != loc || s.locs[id].refs != locRefs[id] || locRefs[id] == 0 {
			t.Fatalf("location %v (entry %d) counts %d references, live slots hold %d", loc, id, s.locs[id].refs, locRefs[id])
		}
	}
	if len(s.nameIDs) != len(nameRefs) {
		t.Fatalf("the name table holds %d entries, live slots reference %d", len(s.nameIDs), len(nameRefs))
	}
	for name, id := range s.nameIDs {
		if s.names[id].name != name || len(s.names[id].idx.rows) != nameRefs[id] {
			t.Fatalf("name %q (entry %d) indexes %d rows, live slots hold %d", name, id, len(s.names[id].idx.rows), nameRefs[id])
		}
	}
	if free := len(s.locs) - 1 - len(s.locIDs); free != len(s.freeLocs) {
		t.Fatalf("%d location entries are unused, %d listed free", free, len(s.freeLocs))
	}
	for _, id := range s.freeLocs {
		if s.locs[id] != (locEntry{}) {
			t.Fatalf("free location entry %d still holds %v", id, s.locs[id])
		}
	}
}

// TestInternTablesBoundedUnderRetention: with a location no other event
// shares and names that come and go, under retention churn the intern
// tables hold exactly what the live slots reference, and recycled entries
// keep them at the live set's size, not the stream's.
func TestInternTablesBoundedUnderRetention(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		s.SetRetention(10 * time.Minute)
		peak := 0
		for i := 0; i < 5000; i++ {
			at := t0.Add(time.Duration(i)*time.Second + time.Duration(rng.Intn(30))*time.Second)
			in := event.Instance{Name: fmt.Sprintf("e%d", (i/700)%9), Start: at, End: at.Add(time.Duration(rng.Intn(90)) * time.Second),
				Loc: locus.Between(locus.Interface, fmt.Sprintf("r%d", i), "if0")}
			if rng.Intn(4) == 0 {
				in.Attrs = event.NewAttrs(map[string]string{"n": fmt.Sprint(i)})
			}
			s.Add(in)
			peak = max(peak, s.Len())
			if i%250 == 0 {
				checkInternTables(t, s)
			}
		}
		checkInternTables(t, s)
		// Entry 0, and the event each Add places before its sweep.
		if len(s.locs) > peak+2 {
			t.Fatalf("seed %d: the location table grew to %d entries for at most %d live events", seed, len(s.locs), peak)
		}
		s.EvictBefore(event.MaxTime)
		checkInternTables(t, s)
		if s.Len() != 0 || len(s.locIDs) != 0 || len(s.nameIDs) != 0 || len(s.chunks) > 1 {
			t.Fatalf("seed %d: an emptied store keeps %d events, %d locations, %d names, %d chunks", seed, s.Len(), len(s.locIDs), len(s.nameIDs), len(s.chunks))
		}
	}
}

// corpusShaped fills a store with n events shaped like the generated
// corpus's: 60% without attributes, 11% with one, 29% with two.
func corpusShaped(n int) *Memory {
	names := []string{event.InterfaceFlap, event.OSPFReconvergence, event.LinkCostOutDown, event.SONETRestoration}
	routers := make([]string, 64)
	for i := range routers {
		routers[i] = fmt.Sprintf("pop%02d-cr%d", i/4, i%4)
	}
	s := New()
	for j := 0; j < n; j++ {
		at := t0.Add(time.Duration(j) * time.Second)
		in := event.Instance{Name: names[j%len(names)], Start: at, End: at, Loc: locus.At(locus.Router, routers[j%len(routers)])}
		switch k := j % 100; {
		case k < 29:
			in.Attrs = event.NewAttrs(map[string]string{"link": fmt.Sprintf("link-%04d", j%5000), "metric": fmt.Sprint(10 + j%90)})
		case k < 40:
			in.Attrs = event.NewAttrs(map[string]string{"detail": fmt.Sprintf("restoration on ring %d", j%300)})
		}
		s.Add(in)
	}
	return s
}

// rowBytes reports what n corpus-shaped stored events cost per event: the
// live heap they add, and the bytes their store maps outside the heap.
func rowBytes(n int) (heap, mapped float64) {
	var ms [2]runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms[0])
	s := corpusShaped(n)
	runtime.GC()
	runtime.ReadMemStats(&ms[1])
	return float64(ms[1].HeapAlloc-ms[0].HeapAlloc) / float64(n), float64(mappedBy(s)) / float64(n)
}

// TestStoreBytesPerEvent is the memory gate: a corpus-shaped stored event
// costs at most 58 bytes — slot, attribute reference, index entry and the
// attribute section itself (72 while each section was its own string
// behind a 16-byte column entry, 159.9 when every event was its own
// event.Instance) — counting the heap and the mapped pages alike, and at
// most 16 of them are heap: only the slabs' sections are.
func TestStoreBytesPerEvent(t *testing.T) {
	heap, mapped := rowBytes(200000)
	if heap+mapped > 58 {
		t.Errorf("a stored event costs %.1f bytes (%.1f heap, %.1f mapped), want ≤ 58", heap+mapped, heap, mapped)
	}
	if heap > 16 {
		t.Errorf("a stored event costs %.1f bytes of live heap, want ≤ 16", heap)
	}
}
