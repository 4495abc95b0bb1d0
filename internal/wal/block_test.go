package wal

import (
	"bytes"
	"fmt"
	"math"
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

// blockCases are batches the block must carry exactly: attributes, empty
// strings, long and zero durations, starts that go backwards, and the
// extreme instants a record can hold.
func blockCases() map[string][]event.Instance {
	lo, hi := time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	return map[string][]event.Instance{
		"empty":       nil,
		"ingest_bulk": upBatch(1000, false),
		"attrs":       upBatch(100, true),
		"generated":   genEvents(5, 300),
		"empty strings": {
			{Name: "", Start: t0, End: t0},
			{Name: "x", Start: t0, End: t0, Loc: locus.Location{Type: locus.Router, A: ""}},
			{Name: "x", Start: t0, End: t0, Loc: locus.Between(locus.Interface, "", ""),
				Attrs: event.NewAttrs(map[string]string{"": ""})},
		},
		"long durations and extremes": {
			{Name: "a", Start: t0, End: t0.Add(100 * 365 * 24 * time.Hour)},
			{Name: "b", Start: lo, End: hi},
			{Name: "c", Start: hi, End: hi},
			{Name: "d", Start: lo, End: lo},
			{Name: "e", Start: t0.Add(-time.Nanosecond), End: t0},
		},
	}
}

// TestEventBlockRoundTrip: decode(encode(x)) = x, field for field, and
// the encoding is a function of the instances alone.
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
	}
	// The dictionary is what makes it dense: bench's stream shape costs a
	// few bytes an event, against the wire body's spelled-out strings.
	ins := upBatch(1000, false)
	block, body := AppendEventBlock(nil, ins), wire.AppendEvents(nil, ins)
	if len(block)*4 > len(body) {
		t.Errorf("a 1000-event block is %d bytes, the wire body %d: want under a quarter", len(block), len(body))
	}
}

// TestEventBlockRejects: every prefix of a block, a reference past the
// table, a count the bytes cannot carry and an event ending before it
// starts are errors, never a panic or a short batch.
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
	// One event, table {"x"}: name ref 0, start 0, duration 0, router, A
	// ref 0, B ref r, no attributes.
	one := func(r byte) []byte { return []byte{1, 1, 1, 'x', 0, 0, 0, byte(locus.Router), 0, r, 0} }
	if _, err := DecodeEventBlock(one(0)); err != nil {
		t.Fatalf("the well-formed one-event block: %v", err)
	}
	for name, p := range map[string][]byte{
		"reference past the table": one(1),
		"huge event count":         {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
		"huge string count":        {1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"ends before it starts":    {1, 1, 1, 'x', 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, byte(locus.Router), 0, 0, 0},
	} {
		if _, err := DecodeEventBlock(p); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzEventBlock: arbitrary bytes decode to an error or to a batch, never
// a panic or a read past the buffer; a batch that decodes re-encodes to
// bytes that decode to it again, field for field.
func FuzzEventBlock(f *testing.F) {
	// Short seeds: the engine minimizes every new input it finds, and a
	// long one takes it a minute.
	for _, ins := range blockCases() {
		f.Add(AppendEventBlock(nil, ins[:min(len(ins), 8)]))
	}
	f.Add([]byte{1, 1, 1, 'x', 0, 0, 0, byte(locus.Router), 0, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, err := DecodeEventBlock(data[:len(data):len(data)])
		if err != nil {
			return
		}
		got, err := DecodeEventBlock(AppendEventBlock(nil, ins))
		if err != nil || len(got) != len(ins) {
			t.Fatalf("the re-encoded batch of %d events: %d back, %v", len(ins), len(got), err)
		}
		for i := range ins {
			if got[i] != ins[i] {
				t.Fatalf("event %d came back %+v, went in %+v", i, got[i], ins[i])
			}
		}
	})
}

// BenchmarkEventBlock prices the journal's encoding of one 1000-event
// batch — bench's ingest_bulk shape, and the same with attributes — in
// bytes and in encode and decode time per event, beside the wire body the
// same batch arrives as.
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
			b.ReportMetric(float64(len(wire.AppendEvents(nil, ins)))/n, "wire-bytes/event")
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
