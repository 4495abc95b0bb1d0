package store

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"

	"grca/internal/obs"
)

// The store's pointer-free memory — the slot chunks, their duration and
// attribute columns and every name index's rows — lives in pages mapped
// outside the Go heap (pages_linux.go; elsewhere pages_other.go falls
// back to the heap). The collector neither scans nor counts those pages, so a stored
// byte costs one byte of RSS instead of the two GOGC's headroom makes of
// a heap byte. This file is the only place that turns mapped bytes into typed
// memory: what it hands out holds no Go pointer
// (TestMappedTypesPointerFree), and no pointer into it leaves the
// package, because every read copies. It is also the only place that
// views bytes as a string without a copy (view): the attribute slabs,
// which are heap memory the store never rewrites.
//
// Every touch of mapped memory happens under the owning store's mu, and
// the unlock that follows keeps the store — and with it its arena —
// reachable until the touch is over, so a finalizer never unmaps memory
// still in use.

var (
	// mappedBytes is every byte the process's arenas hold mapped;
	// store.mapped.bytes follows it while metrics are enabled.
	mappedBytes atomic.Int64
	mMapped     = obs.GetGauge("store.mapped.bytes")
	// mAttrBytes is the attribute slab bytes the process's stores hold.
	mAttrBytes = obs.GetGauge("store.attrs.bytes")
)

var pageSize = os.Getpagesize()

// arena is the mapped memory one store owns: each mapping by its first
// byte, with its length; and the count of the attribute slab bytes the
// store holds on the heap. A Memory points to its arena and the arena to
// nothing, so a store dropped without a reset takes its arena with it,
// and the arena's finalizer unmaps what is left and takes its slabs off
// store.attrs.bytes. (A finalizer on the Memory itself would never run:
// the WAL's append hook closes over the Log that holds the store, a
// cycle.)
type arena struct {
	maps  map[*byte]int
	slabs int
}

func newArena() *arena {
	a := &arena{maps: map[*byte]int{}}
	runtime.SetFinalizer(a, (*arena).freeAll)
	return a
}

// alloc maps n bytes of zeroed memory, rounded up to whole pages. A
// failed mapping panics, as the runtime's own out-of-memory does for the
// heap allocation this memory used to be.
func (a *arena) alloc(n int) []byte {
	n = (n + pageSize - 1) / pageSize * pageSize
	b, err := sysMap(n)
	if err != nil {
		panic(fmt.Sprintf("store: mapping %d bytes: %v", n, err))
	}
	a.maps[&b[0]] = n
	mappedBytes.Add(int64(n))
	mMapped.Add(int64(n))
	return b
}

// free unmaps the mapping that starts at p.
func (a *arena) free(p *byte) {
	n, ok := a.maps[p]
	if !ok {
		panic("store: unmapping memory the store does not own")
	}
	delete(a.maps, p)
	if err := sysUnmap(unsafe.Slice(p, n)); err != nil {
		panic(fmt.Sprintf("store: unmapping %d bytes: %v", n, err))
	}
	mappedBytes.Add(-int64(n))
	mMapped.Add(-int64(n))
}

// freeAll unmaps everything the arena holds and forgets its slabs.
func (a *arena) freeAll() {
	for p := range a.maps {
		a.free(p)
	}
	mAttrBytes.Add(-int64(a.slabs))
	a.slabs = 0
}

// newMapped maps one zeroed T: a chunk of empty slots, a chunk's
// durations, all 0, or its attribute column with no row pointing
// anywhere.
func newMapped[T chunk | durColumn | attrColumn](a *arena) *T {
	var zero T
	return (*T)(unsafe.Pointer(&a.alloc(int(unsafe.Sizeof(zero)))[0]))
}

func freeMapped[T chunk | durColumn | attrColumn](a *arena, p *T) { a.free((*byte)(unsafe.Pointer(p))) }

// newSlab allocates an empty attribute slab of capacity n on the heap.
func (a *arena) newSlab(n int) []byte {
	a.slabs += n
	mAttrBytes.Add(int64(n))
	return make([]byte, 0, n)
}

// dropSlabs forgets slabs the store no longer references. Their bytes
// stay valid for any reader still holding a view of them.
func (a *arena) dropSlabs(slabs [][]byte) {
	n := 0
	for _, b := range slabs {
		n += cap(b)
	}
	a.slabs -= n
	mAttrBytes.Add(-int64(n))
}

// view is b as a string, without a copy: b must never be written again.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// columnEntry is what one row costs a name index: the row alone, whose
// start its slot holds.
const columnEntry = int(unsafe.Sizeof(row(0)))

// growColumns is the one way a name index gains room: it maps a page, or
// a quarter more than the index holds (the runtime's own growth for a
// large slice, so the slack a column carries is what it was on the
// heap), moves the rows over and unmaps the old mapping. Nothing appends
// to the column, which would move it to the heap.
func (a *arena) growColumns(idx *nameIndex) {
	b := a.alloc(max(pageSize, cap(idx.rows)*columnEntry*5/4))
	rows := unsafe.Slice((*row)(unsafe.Pointer(&b[0])), len(b)/columnEntry)
	k := len(idx.rows)
	move(rows, idx.rows)
	a.freeColumns(idx)
	idx.rows = rows[:k]
}

// moveStep is how many bytes of a column move copies before it hands
// their pages back.
const moveStep = 1 << 20

// move copies src into dst a stretch at a time, releasing the pages of
// each stretch once it is copied, so that a column being grown never
// holds its pages twice over: with one name, that would be most of the
// store's peak RSS.
func move(dst, src []row) {
	const step = moveStep / columnEntry
	for off := 0; off < len(src); off += step {
		end := min(off+step, len(src))
		copy(dst[off:end], src[off:end])
		release(unsafe.Slice((*byte)(unsafe.Pointer(&src[off])), (end-off)*columnEntry))
	}
}

// release hands the whole pages inside b back to the kernel.
func release(b []byte) {
	lo := (pageSize - int(uintptr(unsafe.Pointer(&b[0]))%uintptr(pageSize))) % pageSize
	if n := (len(b) - lo) / pageSize * pageSize; n > 0 {
		if err := sysRelease(b[lo : lo+n]); err != nil {
			panic(fmt.Sprintf("store: releasing %d bytes: %v", n, err))
		}
	}
}

// freeColumns unmaps a name index's rows, leaving it empty.
func (a *arena) freeColumns(idx *nameIndex) {
	if cap(idx.rows) > 0 {
		a.free((*byte)(unsafe.Pointer(unsafe.SliceData(idx.rows))))
	}
	idx.rows = nil
}
