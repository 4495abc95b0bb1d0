package wal

import (
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/wire"
)

// upBatch is n events shaped like bench's ingest_bulk stream: "Interface
// up", one millisecond apart, on 64 interfaces; with attrs, each carries
// two attributes as a syslog-derived event would.
func upBatch(n int, attrs bool) []event.Instance {
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	ins := make([]event.Instance, n)
	for i := range ins {
		at := t0.Add(time.Duration(i) * time.Millisecond)
		k := (i * 37) % 64
		ins[i] = event.Instance{
			Name: event.InterfaceUp, Start: at, End: at,
			Loc: locus.Between(locus.Interface, fmt.Sprintf("pop%02d-per%d", k/4, 1+k%4), fmt.Sprintf("ge-0/%d/%d", k%2, k%8)),
		}
		if attrs {
			ins[i].Attrs = event.NewAttrs(map[string]string{
				"raw": fmt.Sprintf("%%LINK-3-UPDOWN: Interface ge-0/%d/%d, changed state to up", k%2, k%8),
				"seq": fmt.Sprint(i),
			})
		}
	}
	return ins
}

// blockCases are batches a block frame must carry exactly: attributes,
// empty strings, long and zero durations, starts that go backwards, and
// the extreme instants a record can hold.
func blockCases() map[string][]event.Instance {
	lo, hi := time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	r := locus.At(locus.Router, "r1")
	return map[string][]event.Instance{
		"empty":       nil,
		"ingest_bulk": upBatch(1000, false),
		"attrs":       upBatch(100, true),
		"generated":   genEvents(5, 300),
		"empty strings": {
			{Name: "", Start: t0, End: t0, Loc: locus.Location{Type: locus.PoP}},
			{Name: "x", Start: t0, End: t0, Loc: locus.Location{Type: locus.Router, A: ""}},
			{Name: "x", Start: t0, End: t0, Loc: locus.Between(locus.Interface, "", ""),
				Attrs: event.NewAttrs(map[string]string{"": ""})},
		},
		"long durations and extremes": {
			{Name: "a", Start: t0, End: t0.Add(100 * 365 * 24 * time.Hour), Loc: r},
			{Name: "b", Start: lo, End: hi, Loc: r},
			{Name: "c", Start: hi, End: hi, Loc: r},
			{Name: "d", Start: lo, End: lo, Loc: r},
			{Name: "e", Start: t0.Add(-time.Nanosecond), End: t0, Loc: r},
		},
	}
}

// blockFrameCases are commit groups as the log writes them: dense IDs,
// sparse ones, and one instance.
func blockFrameCases() map[string][]event.Instance {
	out := map[string][]event.Instance{}
	for name, ins := range blockCases() {
		if len(ins) == 0 {
			continue
		}
		for i := range ins {
			ins[i].ID = 3 + i
		}
		out[name+"/dense"] = ins
		sparse := append([]event.Instance(nil), ins...)
		for i := range sparse {
			sparse[i].ID = 3 + i*i
		}
		out[name+"/sparse"] = sparse
		out[name+"/one"] = ins[:1]
	}
	return out
}

// TestBlockFrameRoundTrip: a commit group framed as a block decodes to
// itself, IDs included, from its header's span; and blockLen cuts what it
// is handed at maxBlockEvents, or sooner once the strings pass
// maxBlockBytes.
func TestBlockFrameRoundTrip(t *testing.T) {
	for name, ins := range blockFrameCases() {
		payload, rest, ok := readFrame(appendBlockFrame(nil, ins))
		if !ok || len(rest) != 0 {
			t.Fatalf("%s: the frame does not read back", name)
		}
		s, _, err := blockSpan(payload)
		if err != nil || s != (span{ins[0].ID, ins[len(ins)-1].ID, len(ins)}) {
			t.Fatalf("%s: span %+v (%v)", name, s, err)
		}
		got := make([]event.Instance, s.count)
		if err := decodeBlockFrame(payload, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range ins {
			if got[i] != ins[i] {
				t.Fatalf("%s: instance %d came back %+v, went in %+v", name, i, got[i], ins[i])
			}
		}
	}
	big := upBatch(3*maxBlockEvents, true)
	if n := blockLen(big); n != maxBlockEvents {
		t.Errorf("blockLen of %d events is %d, want %d", len(big), n, maxBlockEvents)
	}
	big[10].Attrs = event.NewAttrs(map[string]string{"raw": strings.Repeat("x", maxBlockBytes)})
	if n := blockLen(big); n != 11 {
		t.Errorf("blockLen past a 1 MiB attribute is %d, want 11", n)
	}
}

// TestMinimalRunWithinBound pins the manifest's count bound: a run of the
// smallest instances a block can hold — every field one byte — stays within
// count ≤ size/wire.MinBlockEvent, and is more than size/frameHeader, the bound
// when every record was a frame of its own.
func TestMinimalRunWithinBound(t *testing.T) {
	ins := make([]event.Instance, 1000)
	for i := range ins {
		ins[i] = event.Instance{ID: i, Start: time.Unix(0, 0).UTC(), End: time.Unix(0, 0).UTC(), Loc: locus.Location{Type: locus.Router}}
	}
	run := appendBlockFrame(append([]byte(nil), magicFrame...), ins)
	r := runInfo{lo: 0, hi: len(ins), count: len(ins), size: int64(len(run)), crc: crc32.Checksum(run, castagnoli)}
	if err := (manifest{next: r.hi, live: r.count, runs: []runInfo{r}}).validate(); err != nil {
		t.Fatalf("a minimal run of %d bytes: %v", r.size, err)
	}
	if int64(r.count) <= r.size/frameHeader {
		t.Errorf("a minimal run of %d instances is %d bytes: the old bound holds it too, so it pins nothing", r.count, r.size)
	}
	got, err := readRun(run, r)
	if err != nil || got[999] != ins[999] {
		t.Fatalf("the minimal run does not parse back: %v", err)
	}
}

// FuzzWALBlockFrame: arbitrary bytes as a block frame's payload decode to
// an error or to instances whose IDs ascend through the header's span —
// never a panic, a read past the buffer, or an allocation the bytes could
// not carry. A frame that decodes is also a run: behind the magic frame
// a restore reads the same instances, and re-encoded they decode to
// themselves again.
func FuzzWALBlockFrame(f *testing.F) {
	for _, ins := range blockFrameCases() {
		payload, _, _ := readFrame(appendBlockFrame(nil, ins[:min(len(ins), 8)]))
		f.Add(payload)
	}
	f.Add([]byte{0, 0, 1, 1, 1, 1, 'x', 0, 0, 0, byte(locus.Router), 0, 0, 0})
	f.Add([]byte(blockMagic))
	f.Fuzz(func(t *testing.T, p []byte) {
		p = p[:len(p):len(p)]
		s, _, err := blockSpan(p)
		if err != nil {
			return
		}
		if s.count > len(p)/wire.MinBlockEvent {
			t.Fatalf("a header of %d instances accepted in %d bytes", s.count, len(p))
		}
		ins := make([]event.Instance, s.count)
		if err := decodeBlockFrame(p, ins); err != nil {
			return
		}
		for i := range ins {
			if i == 0 && ins[i].ID != s.first || i > 0 && ins[i].ID <= ins[i-1].ID {
				t.Fatalf("instance %d has ID %d in a span from %d", i, ins[i].ID, s.first)
			}
		}
		if ins[len(ins)-1].ID != s.last {
			t.Fatalf("IDs end at %d, the header says %d", ins[len(ins)-1].ID, s.last)
		}
		run := appendFrame(append([]byte(nil), magicFrame...), p)
		r := runInfo{lo: s.first, hi: s.last + 1, count: s.count, size: int64(len(run)), crc: crc32.Checksum(run, castagnoli)}
		got, err := readRun(run, r)
		if err != nil {
			t.Fatalf("a frame that decodes does not parse as a run: %v", err)
		}
		again, _, _ := readFrame(appendBlockFrame(nil, ins))
		back := make([]event.Instance, s.count)
		if err := decodeBlockFrame(again, back); err != nil {
			t.Fatalf("the re-encoded frame: %v", err)
		}
		for i := range ins {
			if got[i] != ins[i] || back[i] != ins[i] {
				t.Fatalf("instance %d: decoded %+v, as a run %+v, re-encoded %+v", i, ins[i], got[i], back[i])
			}
		}
	})
}
