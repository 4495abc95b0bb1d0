package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// sortedOracle is the order sorted must produce, computed as it was
// before sorted merged runs: every line gathered, stable-sorted by time,
// copied in that order.
func sortedOracle(f *feed) string {
	lines := make([]lineRef, 0, f.n)
	for _, r := range f.refs {
		lines = append(lines, r...)
	}
	slices.SortStableFunc(lines, func(a, b lineRef) int { return cmp.Compare(a.at, b.at) })
	var b strings.Builder
	for _, l := range lines {
		pos := l.off & (1<<chunkBits - 1)
		b.Write(f.chunks[l.off>>chunkBits][pos : pos+l.n])
	}
	return b.String()
}

// TestSortedMatchesStableSort holds the run merge to its oracle: runs of
// random number and length whose times tie within and across runs, lines
// long enough to cross chunks, and the same lines added as shards' text,
// as a periodic block is; then an empty feed, one line, one run, every
// line its own run, a long run before or after many short ones, and lines
// that fill chunks to the last byte.
func TestSortedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// size draws a line's length (newline not counted), at least its label.
	check := func(name string, times []time.Duration, size func() int) {
		t.Helper()
		lines := make([][]byte, len(times))
		var whole feed
		for i, at := range times {
			lines[i] = fmt.Appendf(nil, "line %d at %d ", i, at)
			lines[i] = append(lines[i], strings.Repeat("x", max(0, size()-len(lines[i])))...)
			whole.add(at, lines[i])
		}
		want := sortedOracle(&whole)
		if got := whole.sorted(); got != want {
			t.Fatalf("%s: sorted differs from the stable sort\ngot  %.300q\nwant %.300q", name, got, want)
		}
		// The same lines, the first third added one at a time, the rest
		// as shards' text, the way a periodic block is added.
		var sharded feed
		cut := len(times) / 3
		for i := range times[:cut] {
			sharded.add(times[i], lines[i])
		}
		for lo := cut; lo < len(times); {
			hi := min(len(times), lo+1+rng.Intn(len(times)))
			var sh shard
			for i := lo; i < hi; i++ {
				sh.refs = append(sh.refs, lineRef{at: times[i], off: uint32(len(sh.text)), n: uint32(len(lines[i]) + 1)})
				sh.text = append(append(sh.text, lines[i]...), '\n')
			}
			if !sharded.addText(sh.text, sh.refs) {
				t.Fatalf("%s: addText refused", name)
			}
			lo = hi
		}
		if got := sharded.sorted(); got != want {
			t.Fatalf("%s: the sharded feed sorts differently\ngot  %.300q\nwant %.300q", name, got, want)
		}
	}
	short := func() int { return 0 }
	check("empty", nil, short)
	check("one line", []time.Duration{7}, short)
	var one, each []time.Duration
	for i := 0; i < 2000; i++ {
		one = append(one, time.Duration(i/3))
		each = append(each, time.Duration(2000-i))
	}
	check("one run", one, short)
	check("every line its own run", each, short)
	// A long run before or after many short ones, as a periodic series
	// and a scenario's bursts make.
	var long, bursts []time.Duration
	for i := 0; i < 3000; i++ {
		long = append(long, time.Duration(i/4))
	}
	for i := 0; i < 400; i++ {
		bursts = append(bursts, time.Duration(rng.Intn(800)))
	}
	check("a long run, then short ones", append(slices.Clone(long), bursts...), short)
	check("short runs, then a long one", append(slices.Clone(bursts), long...), short)
	// 4 KiB with the newline: sixteen lines fill a chunk to its last byte.
	check("chunks filled exactly", one[:200], func() int { return 1<<12 - 1 })
	for trial := 0; trial < 200; trial++ {
		var times []time.Duration
		for runs := 1 + rng.Intn(30); runs > 0; runs-- {
			at := time.Duration(rng.Intn(60))
			for n := 1 + rng.Intn(60); n > 0; n-- {
				times = append(times, at)
				at += time.Duration(rng.Intn(3))
			}
		}
		long := func() int { return rng.Intn(1000) }
		check(fmt.Sprintf("trial %d", trial), times, []func() int{short, long}[trial%2])
	}
}

// TestFlushLaysOutAsAdd renders two and a half blocks of rows, whose
// lines vary in length, at GOMAXPROCS 1 and 64: both feeds must hold the
// chunks and line index that adding each line as it was drawn gives.
func TestFlushLaysOutAsAdd(t *testing.T) {
	line := func(dst []byte, r *row) []byte {
		return fmt.Appendf(dst, "%d,%s", r.at, strings.Repeat("v", int(r.series)))
	}
	rng := rand.New(rand.NewSource(3))
	rows := make([]row, 5*rowBlock/2)
	var want feed
	for i := range rows {
		rows[i] = row{at: time.Duration(rng.Intn(1000)), series: int32(rng.Intn(120))}
		want.add(rows[i].at, line(nil, &rows[i]))
	}
	for _, procs := range []int{1, 64} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			d := &Dataset{feeds: map[string]*feed{}}
			p := d.newPeriodic(0)
			p.start("snmp", line)
			for _, r := range rows {
				p.add(r)
			}
			p.finish()
			got := d.feeds["snmp"]
			if d.err != nil || got.n != want.n || got.size != want.size {
				t.Fatalf("err %v, %d lines of %d bytes, want %d of %d", d.err, got.n, got.size, want.n, want.size)
			}
			if !slices.EqualFunc(got.chunks, want.chunks, slices.Equal) {
				t.Fatalf("%d chunks, want %d, or their bytes differ", len(got.chunks), len(want.chunks))
			}
			if !slices.EqualFunc(got.refs, want.refs, slices.Equal) {
				t.Fatal("the line index differs from adding one line at a time")
			}
		})
	}
}

// TestFlushStopsAtOffsetLimit: a row whose line fits the last addressable
// chunk is added to it, and one that would need a chunk past it sets the
// error Generate returns and adds nothing.
func TestFlushStopsAtOffsetLimit(t *testing.T) {
	line := func(dst []byte, r *row) []byte { return fmt.Appendf(dst, "%09d", r.at) }
	full := &feed{chunks: make([][]byte, 1<<(32-chunkBits))}
	last := len(full.chunks) - 1
	full.chunks[last] = make([]byte, 1<<chunkBits-12, 1<<chunkBits)
	d := &Dataset{feeds: map[string]*feed{"snmp": full}}
	p := d.newPeriodic(0)
	p.start("snmp", line)
	p.add(row{at: 1})
	p.finish()
	if d.err != nil || full.n != 1 || len(full.chunks) != 1<<(32-chunkBits) {
		t.Fatalf("a line that fits the last chunk: err %v, %d lines, %d chunks", d.err, full.n, len(full.chunks))
	}
	if off := full.refs[0][0].off; off>>chunkBits != uint32(last) {
		t.Fatalf("the line sits in chunk %d", off>>chunkBits)
	}
	p.add(row{at: 2})
	p.finish()
	if d.err == nil {
		t.Fatal("a line past the last addressable chunk was added")
	}
	if full.n != 1 || len(full.chunks[last]) != 1<<chunkBits-2 {
		t.Fatalf("the refused line left %d lines, %d bytes in the last chunk", full.n, len(full.chunks[last]))
	}
}
