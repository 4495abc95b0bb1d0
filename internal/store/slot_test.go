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

// TestSlotSize pins the row: a 16-byte slot without a pointer in it — so
// that the collector never scans the chunks — beside a 4-byte attribute
// column entry, 20 bytes an event, and an 8-byte duration for a chunk
// that holds an interval.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 16 {
		t.Errorf("slot is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(slot{}) + unsafe.Sizeof(attrColumn{})/chunkSize; got != 20 {
		t.Errorf("a row with its attribute reference is %d bytes, want 20", got)
	}
	if got := unsafe.Sizeof(durColumn{}) / chunkSize; got != 8 {
		t.Errorf("a row's duration is %d bytes, want 8", got)
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
// an attribute column to one without. The fifth chunk holds only
// instants, so it maps no durations, and the sixth the longest span
// there is, MinTime to MaxTime, and spans of 0 at both edges; a window in
// between finds the long one, which starts 2^63 ns and more before it.
func TestSlotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	want := map[int]event.Instance{}
	put := func(in event.Instance) {
		t.Helper()
		if _, err := s.Put(in); err != nil {
			t.Fatal(err)
		}
		want[in.ID] = in
	}
	for id := 0; id < 5*chunkSize; id += 1 + rng.Intn(3) {
		in := randomInstance(rng)
		switch id / chunkSize {
		case 2:
			in.Attrs = event.NewAttrs(map[string]string{"id": fmt.Sprint(id)})
		case 3:
			in.Attrs = event.Attrs{}
		case 4:
			in.End = in.Start
		}
		in.ID = id
		put(in)
	}
	loc := locus.At(locus.Router, "r")
	for i, span := range [][2]time.Time{{event.MinTime, event.MaxTime}, {event.MinTime, event.MinTime},
		{event.MaxTime, event.MaxTime}, {t0, t0}} {
		put(event.Instance{ID: 5*chunkSize + i, Name: "edge", Start: span[0], End: span[1], Loc: loc})
	}
	if s.durs[4] != nil || s.durs[5] == nil {
		t.Fatalf("the chunk of instants maps durations: %v; the chunk of the longest span: %v", s.durs[4] != nil, s.durs[5] != nil)
	}
	if got := s.Query("edge", t0.Add(time.Hour), t0.Add(2*time.Hour)); len(got) != 1 || got[0].ID != 5*chunkSize {
		t.Fatalf("a window inside the longest span found %d events, want it alone", len(got))
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

// TestDurationsMappedMidChunk: a chunk maps its durations at its first
// interval, however many instants it already holds, and those instants,
// the interval and the instants after it each read back their own End
// through every read.
func TestDurationsMappedMidChunk(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r")
	for m := 0; m < 100; m++ {
		s.Add(mk("e", m, 0, loc))
	}
	if s.durs[0] != nil {
		t.Fatal("a chunk of instants maps durations")
	}
	long := s.Add(mk("e", 100, 30, loc))
	if s.durs[0] == nil {
		t.Fatal("the chunk's first interval mapped no durations")
	}
	for m := 101; m < 200; m++ {
		s.Add(mk("e", m, 0, loc))
	}
	checkMappings(t, s)
	wantEnd := func(in *event.Instance) time.Time {
		if in.ID == long.ID {
			return long.End
		}
		return in.Start
	}
	for id := 0; id < 200; id++ {
		if in, ok := s.Get(id); !ok || !in.End.Equal(wantEnd(in)) {
			t.Fatalf("Get(%d) = %+v, want End %v", id, in, wantEnd(in))
		}
	}
	for _, in := range s.All("e") {
		if !in.End.Equal(wantEnd(in)) {
			t.Fatalf("All: ID %d ends at %v, want %v", in.ID, in.End, wantEnd(in))
		}
	}
	// Minute 120 lies inside the interval alone of everything before it.
	got := s.Query("e", t0.Add(120*time.Minute), t0.Add(120*time.Minute))
	if len(got) != 2 || got[0].ID != long.ID || got[1].ID != 120 {
		t.Fatalf("the query at minute 120 found %d events, want the interval and the instant there", len(got))
	}
}

// TestEvictedIntervalLeavesNoDuration: an evicted interval's duration is
// zeroed with its slot, so an instant put next in its chunk — under a
// fresh ID, or at the evicted one — reads End == Start.
func TestEvictedIntervalLeavesNoDuration(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r")
	for _, in := range []event.Instance{mk("e", 600, 0, loc), mk("e", 0, 60, loc), mk("e", 300, 0, loc)} {
		s.Add(in)
	}
	if n := s.EvictBefore(t0.Add(120 * time.Minute)); n != 1 {
		t.Fatalf("evicted %d events, want the interval alone", n)
	}
	if s.durs[0] == nil || s.durs[0][1] != 0 {
		t.Fatal("the evicted interval left its duration behind")
	}
	checkMappings(t, s)
	for _, id := range []int{3, 1} {
		in := mk("e", 400+id, 0, loc)
		in.ID = id
		if _, err := s.Put(in); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(id); !ok || !got.End.Equal(got.Start) {
			t.Fatalf("the instant put at ID %d reads %+v", id, got)
		}
	}
	if got := s.Query("e", t0.Add(401*time.Minute), t0.Add(403*time.Minute)); len(got) != 2 {
		t.Fatalf("the window of the two new instants found %d events", len(got))
	}
	checkMappings(t, s)
}

// TestInstantRowBytes: an attribute-less instant maps its 16-byte slot
// and its 4-byte index row, and the slack of the index's growth: at most
// 22 bytes an event, and no duration column.
func TestInstantRowBytes(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r")
	const n = 200000
	for j := 0; j < n; j++ {
		at := t0.Add(time.Duration(j) * time.Second)
		s.Add(event.Instance{Name: "e", Start: at, End: at, Loc: loc})
	}
	for i, d := range s.durs {
		if d != nil {
			t.Fatalf("chunk %d of instants maps durations", i)
		}
	}
	if per := float64(mappedBy(s)) / n; per > 22 {
		t.Errorf("a stored instant maps %.2f bytes, want ≤ 22", per)
	}
}

// TestStoreBytesPerEvent is the memory gate: a corpus-shaped stored event
// costs at most 41 bytes — slot, attribute reference, index row and the
// attribute section itself (≈ 37; 52 while the index kept a copy of each
// start and every slot an end, 72 while each section was its own string
// behind a 16-byte column entry, 159.9 when every event was its own
// event.Instance) — counting the heap and the mapped pages alike, and at
// most 16 of them are heap: only the slabs' sections are.
func TestStoreBytesPerEvent(t *testing.T) {
	heap, mapped := rowBytes(200000)
	if heap+mapped > 41 {
		t.Errorf("a stored event costs %.1f bytes (%.1f heap, %.1f mapped), want ≤ 41", heap+mapped, heap, mapped)
	}
	if heap > 16 {
		t.Errorf("a stored event costs %.1f bytes of live heap, want ≤ 16", heap)
	}
}
