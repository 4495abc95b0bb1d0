package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
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
// batch — bench's ingest_bulk shape, and the same with attributes — in
// bytes and in encode and decode time per event.
func BenchmarkEventBlock(b *testing.B) {
	for _, tc := range []struct {
		name  string
		attrs bool
	}{{"ingest_bulk", false}, {"attrs", true}} {
		ins := upBatch(1000, tc.attrs)
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
