package simnet

import (
	"cmp"
	"slices"
	"strings"
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
	n := len(line) + 1
	if n > 1<<chunkBits {
		panic("simnet: a rendered line is longer than an arena chunk")
	}
	k := len(f.chunks) - 1
	if k < 0 || len(f.chunks[k])+n > 1<<chunkBits {
		if k+1 == 1<<(32-chunkBits) {
			return false
		}
		f.chunks = append(f.chunks, make([]byte, 0, 1<<chunkBits))
		k++
	}
	if f.n%refBlock == 0 {
		f.refs = append(f.refs, make([]lineRef, 0, refBlock))
	}
	c, r := f.chunks[k], len(f.refs)-1
	f.refs[r] = append(f.refs[r], lineRef{at: at, off: uint32(k<<chunkBits + len(c)), n: uint32(n)})
	f.chunks[k] = append(append(c, line...), '\n')
	f.size += n
	f.n++
	return true
}

// sorted returns the feed's lines ordered by record time, lines of one time
// in emission order, copied once into a string of exactly their size.
func (f *feed) sorted() string {
	lines := make([]lineRef, 0, f.n)
	for _, r := range f.refs {
		lines = append(lines, r...)
	}
	slices.SortStableFunc(lines, func(a, b lineRef) int { return cmp.Compare(a.at, b.at) })
	var b strings.Builder
	b.Grow(f.size)
	for _, l := range lines {
		pos := l.off & (1<<chunkBits - 1)
		b.Write(f.chunks[l.off>>chunkBits][pos : pos+l.n])
	}
	return b.String()
}
