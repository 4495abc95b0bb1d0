package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// raceEnabled is set under the race detector, whose sync.Pool drops items
// at random.
var raceEnabled bool

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

// genEvents is n events of mixed names, loci, durations and attributes,
// starts drifting backwards and forwards.
func genEvents(seed int64, n int) []event.Instance {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2010, 1, 5, 0, 0, 0, 0, time.UTC)
	names := []string{"BGP neighbor flap", "Interface down", "Link congestion", "syslog:LINK-3-UPDOWN"}
	out := make([]event.Instance, n)
	for i := range out {
		start := base.Add(time.Duration(i)*11*time.Second - time.Duration(rng.Intn(20))*time.Second)
		out[i] = event.Instance{
			Name:  names[rng.Intn(len(names))],
			Start: start,
			End:   start.Add(time.Duration(rng.Intn(600)) * time.Second),
			Loc:   locus.Between(locus.Interface, fmt.Sprintf("r%d.pop%02d", rng.Intn(6), rng.Intn(3)), fmt.Sprintf("ge-0/0/%d", rng.Intn(4))),
		}
		if rng.Intn(2) == 0 {
			out[i].Attrs = event.NewAttrs(map[string]string{"raw": fmt.Sprintf("line %d", i)})
		}
	}
	return out
}

// blockCases are batches the block must carry exactly: attributes, empty
// strings, long and zero durations, starts that go backwards, and the
// extreme instants a record can hold.
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

// oneEvent is a one-event block, table {"x"}: name ref 0, start 0,
// duration 0, router, A ref 0, B ref b, no attributes.
func oneEvent(b byte) []byte { return []byte{1, 1, 1, 'x', 0, 0, 0, byte(locus.Router), 0, b, 0} }

// blockSeeds is FuzzEventBlock's corpus, and FuzzDecode's behind a header.
// Short seeds: the engine minimizes every new input it finds, and a long
// one takes it a minute.
func blockSeeds() [][]byte {
	var seeds [][]byte
	for _, ins := range blockCases() {
		seeds = append(seeds, AppendEventBlock(nil, ins[:min(len(ins), 8)]))
	}
	return append(seeds, oneEvent(1), []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})
}

// TestEventBlockRoundTrip: decode(encode(x)) = x, field for field; the
// encoding is a function of the instances alone; and a wire events batch
// is the header and that very block.
func TestEventBlockRoundTrip(t *testing.T) {
	for name, ins := range blockCases() {
		block := AppendEventBlock(nil, ins)
		if again := AppendEventBlock([]byte("prefix"), ins); !bytes.Equal(again[6:], block) {
			t.Errorf("%s: two encodings of the same batch differ", name)
		}
		got, err := DecodeEventBlock(block)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(ins) {
			t.Fatalf("%s: %d events back, %d in", name, len(got), len(ins))
		}
		for i := range ins {
			if got[i] != ins[i] {
				t.Fatalf("%s: event %d came back %+v, went in %+v", name, i, got[i], ins[i])
			}
		}
		if body := AppendEvents(nil, ins); !bytes.Equal(body[headerSize:], block) {
			t.Errorf("%s: the wire batch's payload is not the block", name)
		}
	}
}

// TestEventBlockRejects: every prefix of a block, a reference past the
// table, a count the bytes cannot carry, an event ending before it starts,
// an unknown locus type and every non-canonical spelling of a block are
// errors, never a panic or a short batch; and an instant the block cannot
// carry encodes as a block no decoder accepts.
func TestEventBlockRejects(t *testing.T) {
	block := AppendEventBlock(nil, upBatch(20, true))
	for n := 0; n < len(block); n++ {
		if _, err := DecodeEventBlock(block[:n:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte block decoded", n, len(block))
		}
	}
	if _, err := DecodeEventBlock(append(block[:len(block):len(block)], 0)); err == nil {
		t.Fatal("a block with a trailing byte decoded")
	}
	if _, err := DecodeEventBlock(oneEvent(0)); err != nil {
		t.Fatalf("the well-formed one-event block: %v", err)
	}
	router := byte(locus.Router)
	for name, p := range map[string][]byte{
		"reference past the table": oneEvent(1),
		"huge event count":         {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
		"huge string count":        {1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"ends before it starts":    {1, 1, 1, 'x', 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, router, 0, 0, 0},
		"unknown locus type":       {1, 1, 1, 'x', 0, 0, 0, 200, 0, 0, 0},
		"locus type none":          {1, 1, 1, 'x', 0, 0, 0, 0, 0, 0, 0},
		"padded event count":       {0x81, 0, 1, 1, 'x', 0, 0, 0, router, 0, 0, 0},
		"padded string length":     {1, 1, 0x81, 0, 'x', 0, 0, 0, router, 0, 0, 0},
		"padded duration":          {1, 1, 1, 'x', 0, 0, 0x80, 0, router, 0, 0, 0},
		"padded reference":         {1, 1, 1, 'x', 0, 0, 0, router, 0x80, 0, 0, 0},
		"repeated string":          {1, 2, 1, 'x', 1, 'x', 0, 0, 0, router, 0, 1, 0},
		"unused string":            {1, 2, 1, 'x', 1, 'y', 0, 0, 0, router, 0, 0, 0},
		"table out of first use":   {1, 2, 1, 'x', 1, 'y', 1, 0, 0, router, 0, 0, 0},
		"padded attribute count":   {1, 1, 1, 'x', 0, 0, 0, router, 0, 0, 0x80, 0},
	} {
		if _, err := DecodeEventBlock(p); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for name, in := range map[string]event.Instance{
		"zero start":       {Name: "x", End: t0},
		"zero end":         {Name: "x", Start: t0},
		"before MinTime":   {Name: "x", Start: event.MinTime.Add(-time.Nanosecond), End: t0},
		"after MaxTime":    {Name: "x", Start: t0, End: event.MaxTime.Add(time.Nanosecond)},
		"zero, at MinTime": {Name: "x", Start: event.MinTime, End: time.Time{}},
	} {
		in.Loc = locus.At(locus.Router, "r1")
		ok := event.Instance{Name: "y", Start: event.MinTime, End: event.MinTime, Loc: in.Loc}
		if got, err := DecodeEventBlock(AppendEventBlock(nil, []event.Instance{ok, in, ok})); err == nil {
			t.Errorf("%s: decoded, to %+v", name, got[1])
		}
	}
}

// refAppendEventBlock is the map-based encoder AppendEventBlock replaced,
// kept as its oracle: a fresh map, table and scratch for every block, and a
// map lookup for every string.
func refAppendEventBlock(b []byte, ins []event.Instance) []byte {
	refs := make(map[string]uint64, 64)
	var table []string
	ref := func(s string) uint64 {
		r, ok := refs[s]
		if !ok {
			r = uint64(len(table))
			refs[s] = r
			table = append(table, s)
		}
		return r
	}
	evs := make([]byte, 0, 16*len(ins))
	var prev uint64
	for i := range ins {
		in := &ins[i]
		start, dur := uint64(in.Start.UnixNano()), uint64(in.End.UnixNano()-in.Start.UnixNano())
		if !refHolds(in.Start) || !refHolds(in.End) {
			start, dur = 0, math.MaxUint64
		}
		evs = binary.AppendUvarint(evs, ref(in.Name))
		evs = binary.AppendVarint(evs, int64(start-prev))
		evs = binary.AppendUvarint(evs, dur)
		evs = append(evs, byte(in.Loc.Type))
		evs = binary.AppendUvarint(evs, ref(in.Loc.A))
		evs = binary.AppendUvarint(evs, ref(in.Loc.B))
		evs = in.Attrs.AppendSection(evs)
		prev = start
	}
	b = binary.AppendUvarint(b, uint64(len(ins)))
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, s := range table {
		b = appendString(b, s)
	}
	return append(b, evs...)
}

// refHolds reports whether t has an int64-nanosecond form.
func refHolds(t time.Time) bool { return !t.Before(event.MinTime) && !t.After(event.MaxTime) }

// colliding is the k-th of strings that share their length and their first
// and last 8 bytes, and so one cache slot.
func colliding(k int) string { return fmt.Sprintf("collide:%04d:collide", k) }

// collidingBatch is n events whose locations are drawn from 72 strings
// that all share one cache slot.
func collidingBatch(n int) []event.Instance {
	ins := upBatch(n, false)
	for i := range ins {
		ins[i].Loc.A, ins[i].Loc.B = colliding(i*37%64), colliding(64+i%8)
	}
	return ins
}

// parityCases are the batches the encoder must write exactly as its
// oracle does.
func parityCases() map[string][]event.Instance {
	cases := blockCases()
	cases["ingest_bulk"] = upBatch(1000, false)
	cases["attrs"] = upBatch(1000, true)
	for seed := int64(1); seed <= 4; seed++ {
		cases[fmt.Sprintf("generated %d", seed)] = genEvents(seed, 500)
	}
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(name, a, b string, start, end time.Time) event.Instance {
		return event.Instance{Name: name, Start: start, End: end, Loc: locus.Between(locus.Interface, a, b)}
	}
	var many, shared, edges []event.Instance
	for i := 0; i < 700; i++ {
		// 1400 distinct strings, each used twice, far apart.
		k := i % 350
		many = append(many, at(fmt.Sprintf("name %d", k), fmt.Sprintf("a%d", k), fmt.Sprintf("a much longer location string %d", k), t0, t0))
	}
	cases["more strings than cache slots"] = many
	cases["colliding"] = collidingBatch(300)
	for i := 0; i < 20; i++ {
		s := fmt.Sprintf("s%d", i%3)
		shared = append(shared, at(s, fmt.Sprintf("s%d", (i+1)%3), s, t0, t0))
	}
	cases["one string as name and location"] = shared
	cases["empty A and B"] = []event.Instance{at("x", "", "", t0, t0), at("", "", "y", t0, t0), at("y", "x", "", t0, t0)}
	ns := time.Nanosecond
	for _, tm := range []time.Time{
		event.MinTime, event.MinTime.Add(-ns), event.MinTime.Add(ns),
		event.MaxTime, event.MaxTime.Add(-ns), event.MaxTime.Add(ns), {},
	} {
		edges = append(edges, at("e", "r", "", tm, tm), at("e", "r", "", event.MinTime, tm), at("e", "r", "", tm, event.MaxTime))
	}
	cases["instants at the edges"] = edges
	return cases
}

// TestEncoderMatchesReference: the pooled, cached encoder writes the
// oracle's bytes for every batch, after a prefix too, and a block encoded
// after another with disjoint strings carries none of the first's over.
func TestEncoderMatchesReference(t *testing.T) {
	for name, ins := range parityCases() {
		for _, prefix := range []string{"", "prefix"} {
			got := AppendEventBlock([]byte(prefix), ins)
			if want := refAppendEventBlock([]byte(prefix), ins); !bytes.Equal(got, want) {
				t.Errorf("%s, prefix %q: the encoder wrote %d bytes unlike the reference's %d", name, prefix, len(got), len(want))
			}
		}
	}
	first, second := upBatch(100, true), genEvents(9, 100)
	for _, ins := range [][]event.Instance{first, second, first, collidingBatch(50), second} {
		if got, want := AppendEventBlock(nil, ins), refAppendEventBlock(nil, ins); !bytes.Equal(got, want) {
			t.Fatalf("back to back: a block encoded after another differs from the reference")
		}
	}
}

// TestEncodeAllocatesNothing: a block appended to a buffer with room for
// it allocates nothing, its encoder's table, map and scratch reused.
func TestEncodeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops encoders at random under the race detector")
	}
	for name, ins := range map[string][]event.Instance{
		"ingest_bulk": upBatch(1000, false),
		"attrs":       upBatch(1000, true),
	} {
		buf := AppendEventBlock(nil, ins)
		if n := testing.AllocsPerRun(100, func() { buf = AppendEventBlock(buf[:0], ins) }); n != 0 {
			t.Errorf("%s: %v allocations a block", name, n)
		}
	}
}

// TestEncoderResetHoldsNothing: an encoder going back to the pool holds no
// string of the block it encoded — its cache, map and table are empty —
// and one grown past its bounds is not pooled at all.
func TestEncoderResetHoldsNothing(t *testing.T) {
	e := &encoder{refs: make(map[string]int)}
	for _, ins := range [][]event.Instance{upBatch(1000, true), parityCases()["more strings than cache slots"], collidingBatch(100)} {
		e.append(nil, ins)
		if !e.reset() {
			t.Fatalf("an encoder of %d events was not pooled", len(ins))
		}
		if e.cache != [cacheSlots]cached{} {
			t.Error("the cache holds a string")
		}
		if len(e.refs) != 0 || len(e.slots) != 0 || len(e.evs) != 0 {
			t.Errorf("%d strings mapped, %d slots in use, %d scratch bytes", len(e.refs), len(e.slots), len(e.evs))
		}
		for _, s := range e.table[:cap(e.table)] {
			if s != "" {
				t.Fatalf("the table holds %q", s)
			}
		}
	}
	big := upBatch(1, false)
	big[0].Attrs = event.NewAttrs(map[string]string{"raw": string(make([]byte, maxPooledScratch))})
	e.append(nil, big)
	if e.reset() {
		t.Errorf("an encoder with %d bytes of scratch was pooled", cap(e.evs))
	}
	e = &encoder{refs: make(map[string]int)}
	var wide []event.Instance
	for i := 0; i <= maxPooledStrings/2; i++ {
		wide = append(wide, event.Instance{Name: "x", Loc: locus.Between(locus.Interface, fmt.Sprint("a", i), fmt.Sprint("b", i))})
	}
	e.append(nil, wide)
	if e.reset() {
		t.Errorf("an encoder whose map held %d strings was pooled", e.grown)
	}
}

// FuzzEncodeParity: for batches built from arbitrary bytes — strings fresh,
// repeated or sharing a cache slot with an earlier one, instants at and
// past the encodable range — the encoder writes the oracle's bytes.
func FuzzEncodeParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\xff\x14collide:0000:collide\x00\x80\x05\x01\x02\x03\x04\x05\x06\x07"))
	for _, seed := range blockSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ins := fuzzInstances(data)
		half := len(ins) / 2
		for _, b := range [][]event.Instance{ins, ins[:half], ins[half:]} {
			if got, want := AppendEventBlock(nil, b), refAppendEventBlock(nil, b); !bytes.Equal(got, want) {
				t.Fatalf("%d events: encoder %x, reference %x", len(b), got, want)
			}
		}
	})
}

// fuzzInstances builds a batch from fuzz bytes. Each string is one used
// before, a fresh one the bytes spell, or an earlier one with a middle byte
// replaced (same length, first and last 8 bytes: same cache slot); each
// instant is an edge of the encodable range, one past it, the zero time or
// a step from the previous.
func fuzzInstances(data []byte) []event.Instance {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	var pool []string
	str := func() string {
		op := next()
		if len(pool) > 0 && op < 128 {
			return pool[int(op)%len(pool)]
		}
		s := ""
		if old := ""; len(pool) > 0 && op < 192 {
			old = pool[int(op)%len(pool)]
			if len(old) > 16 {
				s = old[:8] + string(next()) + old[9:]
			}
		}
		if s == "" {
			n := min(int(next()%48), len(data))
			s, data = string(data[:n]), data[n:]
		}
		pool = append(pool, s)
		return s
	}
	at := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	instant := func() time.Time {
		ns := time.Nanosecond
		switch op := next(); op % 16 {
		case 0:
			return event.MinTime
		case 1:
			return event.MaxTime
		case 2:
			return event.MinTime.Add(-ns)
		case 3:
			return event.MaxTime.Add(ns)
		case 4:
			return event.MinTime.Add(ns)
		case 5:
			return event.MaxTime.Add(-ns)
		case 6:
			return time.Time{}
		default:
			at = at.Add(time.Duration(int8(next()))*time.Second + time.Duration(op))
			return at
		}
	}
	var ins []event.Instance
	for len(data) > 0 && len(ins) < 256 {
		in := event.Instance{Name: str(), Start: instant(), End: instant()}
		in.Loc = locus.Location{Type: locus.Type(next()), A: str(), B: str()}
		if next()%4 == 0 {
			in.Attrs = event.NewAttrs(map[string]string{str(): str()})
		}
		ins = append(ins, in)
	}
	return ins
}

// FuzzEventBlock: arbitrary bytes decode to an error or to a batch, never
// a panic or a read past the buffer; and decoding is canonical — a batch
// that decodes re-encodes to the very bytes it was decoded from.
func FuzzEventBlock(f *testing.F) {
	for _, seed := range blockSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, err := DecodeEventBlock(data[:len(data):len(data)])
		if err != nil {
			return
		}
		if enc := AppendEventBlock(nil, ins); !bytes.Equal(enc, data) {
			t.Fatalf("%x decoded to %d events, which encode as %x", data, len(ins), enc)
		}
	})
}

// BenchmarkEventBlock prices the one binary encoding of one 1000-event
// batch — bench's ingest_bulk shape, the same with attributes, genEvents'
// mix of names, loci and attributes, and locations that all share one
// encoder cache slot — in bytes and in encode and decode time per event.
func BenchmarkEventBlock(b *testing.B) {
	for _, tc := range []struct {
		name string
		ins  []event.Instance
	}{
		{"ingest_bulk", upBatch(1000, false)},
		{"attrs", upBatch(1000, true)},
		{"mixed", genEvents(3, 1000)},
		{"colliding", collidingBatch(1000)},
	} {
		ins := tc.ins
		block := AppendEventBlock(nil, ins)
		n := float64(len(ins))
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
			b.ReportMetric(float64(len(block))/n, "bytes/event")
		}
		b.Run(tc.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, len(block))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendEventBlock(buf[:0], ins)
			}
			report(b)
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeEventBlock(block); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
	}
}
