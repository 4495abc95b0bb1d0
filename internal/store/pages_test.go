package store

import (
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

// settledMapped returns the process's mapped bytes once the finalizers of
// stores already dropped have stopped releasing any.
func settledMapped() int64 {
	prev := int64(-1)
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		v := mappedBytes.Load()
		if v == prev {
			break
		}
		prev = v
	}
	return prev
}

// mappedBy is how many bytes a store's arena holds mapped.
func mappedBy(s *Memory) int64 {
	n := 0
	for _, size := range s.mem.maps {
		n += size
	}
	return int64(n)
}

// fillStore adds n events under three names, one an hour apart each;
// those of e2 last a minute, so every chunk maps durations.
func fillStore(s *Memory, n int) {
	loc := locus.At(locus.Router, "r")
	for j := 0; j < n; j++ {
		at := t0.Add(time.Duration(j) * time.Hour)
		in := event.Instance{Name: fmt.Sprintf("e%d", j%3), Start: at, End: at, Loc: loc}
		if j%3 == 2 {
			in.End = at.Add(time.Minute)
		}
		s.Add(in)
	}
}

// chunkBytes is what a chunk of slots maps with its duration column.
const chunkBytes = int64(unsafe.Sizeof(chunk{}) + unsafe.Sizeof(durColumn{}))

// TestPagesReleased: what a store maps comes back — when eviction
// empties it, when a checkpoint install (Replace, over a restored one) takes
// its place, and, through the arena's finalizer, when the store is
// dropped, even one held in a cycle the way the WAL's append hook holds
// its store.
func TestPagesReleased(t *testing.T) {
	start := settledMapped()

	s := New()
	fillStore(s, 3*chunkSize)
	if mappedBy(s) < 3*chunkBytes {
		t.Fatalf("a store of 3 chunks' events maps %d bytes", mappedBy(s))
	}
	s.EvictBefore(event.MaxTime)
	if mappedBy(s) != 0 || len(s.mem.maps) != 0 || len(s.chunks) != 0 {
		t.Fatalf("an emptied store keeps %d bytes in %d mappings, %d chunks", mappedBy(s), len(s.mem.maps), len(s.chunks))
	}

	src := New()
	fillStore(src, 2*chunkSize+7)
	var base, next int
	var dump []event.Instance
	if err := src.SnapshotTo(func(b, n, _ int) error { base, next = b, n; return nil },
		func(in *event.Instance) error { dump = append(dump, *in); return nil }); err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := replaceWith(r, base, next, dump); err != nil {
		t.Fatal(err)
	}
	if mappedBy(r) != mappedBy(src) {
		t.Fatalf("the restored store maps %d bytes, its source %d", mappedBy(r), mappedBy(src))
	}
	if err := r.Replace(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if mappedBy(r) != 0 || len(r.mem.maps) != 0 {
		t.Fatalf("after an empty checkpoint install the store keeps %d bytes in %d mappings", mappedBy(r), len(r.mem.maps))
	}
	src.Replace(0, 0, nil) //nolint:errcheck // empty bounds always install

	made := int64(0)
	for i := 0; i < 200; i++ {
		d := New()
		d.OnAppend(func(*event.Instance) { _ = d })
		fillStore(d, 100)
		made += mappedBy(d)
	}
	if made < 200*chunkBytes {
		t.Fatalf("200 filled stores mapped %d bytes", made)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mappedBytes.Load() > start && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := mappedBytes.Load(); got > start {
		t.Fatalf("with every store dropped or emptied the process maps %d bytes, %d before", got, start)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(r)
}

// TestMappedTypesPointerFree: everything the store places in mapped
// memory — a chunk of slots, a chunk's duration and attribute columns, and
// a name index's rows — holds no Go pointer, so the collector never needs
// to see it.
func TestMappedTypesPointerFree(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	rows, _ := reflect.TypeOf(nameIndex{}).FieldByName("rows")
	for _, ty := range []reflect.Type{reflect.TypeOf((*chunk)(nil)).Elem(), reflect.TypeOf((*durColumn)(nil)).Elem(),
		reflect.TypeOf((*attrColumn)(nil)).Elem(), rows.Type.Elem()} {
		if !pointerFree(ty) {
			t.Errorf("%v is placed in mapped memory but holds a pointer", ty)
		}
	}
	if pointerFree(reflect.TypeOf(attrChunk{})) {
		t.Error("the walk finds no pointer in an attrChunk, which holds its column and its slabs")
	}
}

// checkMappings holds the arena against the store: every chunk, every
// chunk's duration and attribute columns and every name index's rows lie
// inside mappings the arena owns — the rows at their full capacity — and
// the arena owns nothing else, so nothing leaked and nothing was moved to
// the heap by an append. An empty row of a chunk with durations reads 0.
// The arena counts the bytes of exactly the slabs the store references.
func checkMappings(t *testing.T, s *Memory) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	owned := map[uintptr]uintptr{}
	for p, n := range s.mem.maps {
		owned[uintptr(unsafe.Pointer(p))] = uintptr(n)
	}
	inside := func(what string, sp span) uintptr {
		t.Helper()
		for lo, n := range owned {
			if sp.lo >= lo && sp.hi <= lo+n {
				return lo
			}
		}
		t.Fatalf("%s [%#x, %#x) lies in no mapping the store owns", what, sp.lo, sp.hi)
		return 0
	}
	used := map[uintptr]bool{}
	for i, c := range s.chunks {
		if c != nil {
			p := uintptr(unsafe.Pointer(c))
			used[inside(fmt.Sprintf("chunk %d", i), span{p, p + unsafe.Sizeof(*c)})] = true
		}
	}
	if len(s.durs) != len(s.chunks) || len(s.attrs) != len(s.chunks) {
		t.Fatalf("%d chunks beside %d duration and %d attribute columns", len(s.chunks), len(s.durs), len(s.attrs))
	}
	for i, d := range s.durs {
		if d == nil {
			continue
		}
		if s.chunks[i] == nil {
			t.Fatalf("chunk %d holds durations and no slots", i)
		}
		for j, sl := range s.chunks[i] {
			if sl.name == 0 && d[j] != 0 {
				t.Fatalf("the empty row %d of chunk %d keeps a duration of %d", j, i, d[j])
			}
		}
		p := uintptr(unsafe.Pointer(d))
		used[inside(fmt.Sprintf("duration column %d", i), span{p, p + unsafe.Sizeof(*d)})] = true
	}
	slabs := 0
	for i, ac := range s.attrs {
		if ac.col == nil {
			if len(ac.slabs) != 0 {
				t.Fatalf("chunk %d holds %d attribute slabs and no column", i, len(ac.slabs))
			}
			continue
		}
		p := uintptr(unsafe.Pointer(ac.col))
		used[inside(fmt.Sprintf("attribute column %d", i), span{p, p + unsafe.Sizeof(*ac.col)})] = true
		for _, b := range ac.slabs {
			slabs += cap(b)
		}
	}
	if slabs != s.mem.slabs {
		t.Fatalf("the store references %d bytes of attribute slabs, the arena counts %d", slabs, s.mem.slabs)
	}
	for name, id := range s.nameIDs {
		idx := &s.names[id].idx
		if cap(idx.rows) == 0 {
			t.Fatalf("name %q holds no rows", name)
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(idx.rows)))
		used[inside(name+" rows", span{p, p + uintptr(cap(idx.rows))*unsafe.Sizeof(row(0))})] = true
	}
	if len(used) != len(owned) {
		t.Fatalf("the arena holds %d mappings, the store references %d", len(owned), len(used))
	}
}

// TestColumnsInsideMappings: under random Puts (in order, late, into
// forward gaps; a third with attributes, some larger than a slab),
// evictions and settling reads, every chunk and column the store
// references lies inside a mapping it owns, and it owns no other.
func TestColumnsInsideMappings(t *testing.T) {
	loc := locus.At(locus.Router, "r")
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		clock, id := 0, 0
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 90:
				clock += rng.Intn(3)
				at := t0.Add(time.Duration(clock-rng.Intn(4)*rng.Intn(60)) * time.Second)
				id += 1 + rng.Intn(2)*rng.Intn(3*chunkSize)*rng.Intn(2)
				in := event.Instance{ID: id, Name: fmt.Sprintf("e%d", rng.Intn(4)), Start: at, End: at.Add(time.Minute), Loc: loc}
				if rng.Intn(3) == 0 {
					in.Attrs = event.NewAttrs(map[string]string{"msg": strings.Repeat("x", rng.Intn(3*slabSize/2))})
				}
				if _, err := s.Put(in); err != nil {
					t.Fatal(err)
				}
			case op < 95:
				s.EvictBefore(t0.Add(time.Duration(clock-rng.Intn(600)) * time.Second))
			default:
				s.Query(fmt.Sprintf("e%d", rng.Intn(4)), t0, t0.Add(time.Duration(clock)*time.Second))
			}
			if step%100 == 0 {
				checkMappings(t, s)
			}
		}
		checkMappings(t, s)
		s.EvictBefore(event.MaxTime)
		checkMappings(t, s)
		if len(s.mem.maps) != 0 {
			t.Fatalf("seed %d: an emptied store keeps %d mappings", seed, len(s.mem.maps))
		}
	}
}

// TestColumnGrowthKeepsRows: one name's index grown far past a move
// stretch, with late arrivals settled in between, reads back every row in
// Start order — the pages a move hands back are never read again.
func TestColumnGrowthKeepsRows(t *testing.T) {
	s := New()
	loc := locus.At(locus.Router, "r")
	const n = 300000
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		if i%1000 == 999 {
			at = at.Add(-500 * time.Second) // late: lands 500 places back
			s.Query("e", t0, t0)            // settles the one before it
		}
		s.Add(event.Instance{Name: "e", Start: at, End: at, Loc: loc})
	}
	all := s.All("e")
	if len(all) != n {
		t.Fatalf("All returned %d of %d events", len(all), n)
	}
	for i := 1; i < n; i++ {
		if all[i].Start.Before(all[i-1].Start) {
			t.Fatalf("All[%d] (ID %d) starts before All[%d] (ID %d)", i, all[i].ID, i-1, all[i-1].ID)
		}
	}
	if got := s.Query("e", t0.Add(99499*time.Second), t0.Add(99499*time.Second)); len(got) != 2 {
		t.Fatalf("the query at a late event's start found %d events, want it and the in-order one there", len(got))
	}
	checkMappings(t, s)
}
