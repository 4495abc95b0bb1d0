package simnet

import (
	"strings"
	"sync"
	"time"
)

// chunkBits sizes a feed's arena chunks at 64 KiB. Config carries no
// strings, so the longest line it can produce is a few hundred bytes.
const chunkBits = 16

// refBlock is how many lineRefs a block of a feed's line index holds (64
// KiB of them).
const refBlock = 4096

// feed is one source's rendered lines in emission order: their bytes, each
// followed by '\n', packed into fixed-size chunks, and where each line sits
// in them, in fixed-size blocks. Both are filled once and never moved.
type feed struct {
	chunks [][]byte
	size   int // bytes of every line, newlines included
	refs   [][]lineRef
	n      int // lines

	// A feed complete before the others is sorted early (sortEarly).
	early   sync.WaitGroup
	started bool
	text    string
}

// sortEarly begins sorting the feed on a goroutine of its own. No line may
// be added to it after.
func (f *feed) sortEarly() {
	f.started = true
	f.early.Add(1)
	go func() {
		defer f.early.Done()
		f.text = f.sorted()
	}()
}

// final returns the feed sorted, by sortEarly's goroutine if it began one.
func (f *feed) final() string {
	if !f.started {
		return f.sorted()
	}
	f.early.Wait()
	return f.text
}

// lineRef places one line: its time as an offset from Config.Start (every
// record lies within hours of the window, so the offset is exact), and its
// n bytes at off, whose high bits number the chunk and low bits the place
// in it.
type lineRef struct {
	at     time.Duration
	off, n uint32
}

// add appends line and a newline. It reports false, and adds nothing, once
// the line would need a chunk beyond what an offset can address (4 GiB of
// feed).
func (f *feed) add(at time.Duration, line []byte) bool {
	line = append(line, '\n')
	return f.addText(line, []lineRef{{at: at, n: uint32(len(line))}})
}

// addText appends the lines of text, which lie back to back in it, each
// ending in a newline, at the places refs give in order, and lays them
// out exactly as adding them one at a time would: a line goes into the
// last chunk if it fits, else into a new one. It copies a chunk's worth
// at once. It reports false once a line would need a chunk beyond what an
// offset can address (4 GiB of feed); the lines before it are added.
func (f *feed) addText(text []byte, refs []lineRef) bool {
	for len(refs) > 0 {
		k := len(f.chunks) - 1
		room := 0
		if k >= 0 {
			room = 1<<chunkBits - len(f.chunks[k])
		}
		n, size := 0, 0
		for n < len(refs) && size+int(refs[n].n) <= room {
			size += int(refs[n].n)
			n++
		}
		if n == 0 {
			if refs[0].n > 1<<chunkBits {
				panic("simnet: a rendered line is longer than an arena chunk")
			}
			if k+1 == 1<<(32-chunkBits) {
				return false
			}
			f.chunks = append(f.chunks, make([]byte, 0, 1<<chunkBits))
			continue
		}
		c, from := f.chunks[k], refs[0].off
		shift := uint32(k<<chunkBits+len(c)) - from
		for todo := refs[:n]; len(todo) > 0; {
			if f.n%refBlock == 0 {
				f.refs = append(f.refs, make([]lineRef, 0, refBlock))
			}
			blk := f.refs[len(f.refs)-1]
			m := min(len(todo), refBlock-len(blk))
			for _, r := range todo[:m] {
				r.off += shift
				blk = append(blk, r)
			}
			f.refs[len(f.refs)-1] = blk
			f.n += m
			todo = todo[m:]
		}
		f.chunks[k] = append(c, text[from:int(from)+size]...)
		f.size += size
		refs = refs[n:]
	}
	return true
}

// sorted returns the feed's lines ordered by record time, lines of one time
// in emission order, copied once into a string of exactly their size. The
// line index is a few ascending runs (a scenario's burst, a periodic
// series): neighbouring runs are merged in place, stably, as TimSort
// balances them, until two are left, whose merge writes the bytes. The run
// found last is merged only then, so a periodic series that closes the
// index is never moved.
func (f *feed) sorted() string {
	lines := make([]lineRef, f.n)
	for i, r := range f.refs {
		copy(lines[i*refBlock:], r)
	}
	// ends is where each run on the stack ends, the first beginning at 0;
	// TimSort's rule keeps it about log1.6(f.n) runs deep.
	var few [64]int
	ends := few[:0]
	// A merge copies its first run out, and that run lies before the last
	// one, which begins at lastRun.
	lastRun := f.n - 1
	for lastRun > 0 && lines[lastRun-1].at <= lines[lastRun].at {
		lastRun--
	}
	var tmp []lineRef
	size := func(i int) int {
		if i == 0 {
			return ends[0]
		}
		return ends[i] - ends[i-1]
	}
	merge := func(i int) { // runs i and i+1, into one
		lo := 0
		if i > 0 {
			lo = ends[i-1]
		}
		if tmp == nil {
			tmp = make([]lineRef, 0, min(lastRun, f.n/2))
		}
		tmp = append(tmp[:0], lines[lo:ends[i]]...)
		k := lo
		mergeRuns(tmp, lines[ends[i]:ends[i+1]], func(s []lineRef) { k += copy(lines[k:], s) })
		ends = append(ends[:i], ends[i+1:]...)
	}
	for i := 1; i <= f.n; i++ {
		if i < f.n && lines[i].at >= lines[i-1].at {
			continue
		}
		ends = append(ends, i)
		// TimSort's rule, with the check of the fourth run that keeps its
		// invariant; the last run waits for the merges below.
		for n := len(ends); i < f.n && n > 1; n = len(ends) {
			if n >= 3 && size(n-3) <= size(n-2)+size(n-1) || n >= 4 && size(n-4) <= size(n-3)+size(n-2) {
				if size(n-3) < size(n-1) {
					merge(n - 3)
				} else {
					merge(n - 2)
				}
			} else if size(n-2) <= size(n-1) {
				merge(n - 2)
			} else {
				break
			}
		}
	}
	for n := len(ends); n > 2; n = len(ends) {
		if size(n-3) < size(n-1) {
			merge(n - 3)
		} else {
			merge(n - 2)
		}
	}
	mid := 0
	if len(ends) == 2 {
		mid = ends[0]
	}
	var out strings.Builder
	out.Grow(f.size)
	mergeRuns(lines[:mid], lines[mid:], func(s []lineRef) {
		for len(s) > 0 {
			// Lines emitted one after another sit back to back in one
			// chunk: one copy writes them.
			k, off, n := 1, s[0].off, s[0].n
			for k < len(s) && s[k].off == off+n && (s[k].off^off)>>chunkBits == 0 {
				n += s[k].n
				k++
			}
			pos := off & (1<<chunkBits - 1)
			out.Write(f.chunks[off>>chunkBits][pos : pos+n])
			s = s[k:]
		}
	})
	return out.String()
}

// mergeRuns merges the ascending runs a and b, handing put their lines in
// order a stretch at a time. Of two lines of one time a's goes first, so
// the merge is stable when a precedes b.
func mergeRuns(a, b []lineRef, put func([]lineRef)) {
	for len(a) > 0 && len(b) > 0 {
		if b[0].at < a[0].at {
			n := before(b, a[0].at)
			put(b[:n])
			b = b[n:]
		} else {
			n := before(a, b[0].at+1)
			put(a[:n])
			a = a[n:]
		}
	}
	put(a)
	put(b)
}

// before counts the lines of run, which is ascending, earlier than t. It
// gallops, probing 1, 2, 4, … lines in, so a count of c costs about
// 2·log2(c) comparisons, however long the run.
func before(run []lineRef, t time.Duration) int {
	lo, hi := 0, 0 // run[:lo] is earlier than t
	for hi < len(run) && run[hi].at < t {
		lo, hi = hi+1, 2*hi+1
	}
	hi = min(hi, len(run))
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); run[m].at < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
