package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata wire vectors")

// goldenEvents is a fixed batch covering every field shape: attrs /
// no attrs, single- and pair-element loci, instantaneous and interval
// times, sub-second precision.
func goldenEvents() []event.Instance {
	t0 := time.Date(2010, 1, 2, 3, 4, 5, 0, time.UTC)
	return []event.Instance{
		{
			Name: "eBGP flap", Start: t0, End: t0.Add(time.Minute),
			Loc: locus.Between(locus.RouterNeighbor, "pop00-per1", "10.99.0.1"),
			Attrs: event.NewAttrs(map[string]string{
				"neighbor": "10.99.0.1",
				"msg":      "BGP-5-ADJCHANGE: neighbor 10.99.0.1 Down",
			}),
		},
		{
			Name: event.InterfaceUp, Start: t0.Add(time.Second + 250*time.Millisecond),
			End: t0.Add(time.Second + 250*time.Millisecond),
			Loc: locus.At(locus.Interface, "load-r7"),
		},
		{
			Name: "CPU high", Start: t0.Add(2 * time.Hour), End: t0.Add(3 * time.Hour),
			Loc:   locus.At(locus.Router, "pop01-agg2"),
			Attrs: event.NewAttrs(map[string]string{"pct": "97"}),
		},
	}
}

// TestGoldenVectors pins the byte-level encoding: a format change that
// alters these bytes breaks every client of the wire, and the journal and
// WAL that hold the same blocks, and must be a new version and FORMAT, not
// a silent edit.
func TestGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		enc  []byte
	}{
		{"events_batch.bin", AppendEvents(nil, goldenEvents())},
		{"feed_batch.bin", AppendFeed(nil, "syslog", "Jan  2 03:04:05 pop00-per1 %SYS-5-RESTART: reload\n")},
	}
	for _, tc := range cases {
		path := filepath.Join("testdata", tc.name)
		if *updateGolden {
			if err := os.WriteFile(path, tc.enc, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", tc.name, err)
		}
		if !bytes.Equal(tc.enc, want) {
			t.Errorf("%s: encoding drifted from golden vector\n got %s\nwant %s",
				tc.name, hex.EncodeToString(tc.enc), hex.EncodeToString(want))
		}
		b, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", tc.name, err)
		}
		switch tc.name {
		case "events_batch.bin":
			if !reflect.DeepEqual(b.Events, goldenEvents()) {
				t.Errorf("%s: golden decode mismatch: %+v", tc.name, b.Events)
			}
		case "feed_batch.bin":
			if b.Source != "syslog" || len(b.Lines) == 0 {
				t.Errorf("%s: golden feed decode mismatch: %+v", tc.name, b)
			}
		}
	}
}

// TestRoundTripProperty encodes and decodes randomized batches and
// requires exact equality — the encoder and decoder must be inverses on
// every valid instance, and decode → encode must give back the bytes.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randStr := func(n int) string {
		const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-.:| %\"\\\x00\xff"
		b := make([]byte, rng.Intn(n))
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	for iter := 0; iter < 200; iter++ {
		ins := make([]event.Instance, rng.Intn(8)+1)
		for i := range ins {
			start := time.Unix(rng.Int63n(4e9)-1e9, rng.Int63n(1e9)).UTC()
			ins[i] = event.Instance{
				Name:  "ev-" + randStr(12) + "x",
				Start: start,
				End:   start.Add(time.Duration(rng.Int63n(int64(48 * time.Hour)))),
				Loc: locus.Location{
					Type: locus.Type(rng.Intn(int(locus.ServerClient)) + 1),
					A:    randStr(16), B: randStr(16),
				},
			}
			if n := rng.Intn(4); n > 0 {
				m := map[string]string{}
				for ; n > 0; n-- {
					m["k"+randStr(6)] = randStr(20)
				}
				ins[i].Attrs = event.NewAttrs(m)
			}
		}
		enc := AppendEvents(nil, ins)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if got.Kind != KindEvents || !reflect.DeepEqual(got.Events, ins) {
			t.Fatalf("iter %d: round trip mismatch\n got %+v\nwant %+v", iter, got.Events, ins)
		}
		if !bytes.Equal(AppendEvents(nil, got.Events), enc) || !bytes.Equal(got.Block, enc[headerSize:]) {
			t.Fatalf("iter %d: decode → encode is not the identity on the bytes", iter)
		}

		src, lines := randStr(10), randStr(200)
		fb, err := Decode(AppendFeed(nil, src, lines))
		if err != nil {
			t.Fatalf("iter %d: feed decode: %v", iter, err)
		}
		if fb.Kind != KindFeed || fb.Source != src || string(fb.Lines) != lines {
			t.Fatalf("iter %d: feed round trip mismatch", iter)
		}
	}
}

// TestDecodeFeedAliasesBody: a feed batch's lines are the decoded body's
// own bytes. Decoding allocates the source name and nothing for the lines,
// however long they are.
func TestDecodeFeedAliasesBody(t *testing.T) {
	body := AppendFeed(nil, "syslog", strings.Repeat("Mar  1 00:00:00 per1 %BGP-5-ADJCHANGE: neighbor 10.0.0.1 Down\n", 1<<14))
	var b Batch
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if b, err = Decode(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("decoding a %d-byte feed batch allocates %v times, want 1 (the source)", len(body), allocs)
	}
	if len(b.Lines) == 0 || &b.Lines[len(b.Lines)-1] != &body[len(body)-1] {
		t.Error("the decoded lines are a copy of the body, not a subslice")
	}
}

// TestDecodeValidation: Decode holds every event to event.Instance.Check,
// in the JSON path's words; what the block cannot carry — a zero or
// out-of-range instant, an end before the start, an unknown locus type, an
// attribute section out of canonical form — is refused by the block
// decoder; and a version 1 batch is refused by name.
func TestDecodeValidation(t *testing.T) {
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	r1 := locus.At(locus.Router, "r1")
	for _, tc := range []struct {
		in   event.Instance
		want string
	}{
		{event.Instance{Name: "  ", Start: t0, End: t0, Loc: r1}, `event name is required`},
		{event.Instance{Name: "x", End: t0, Loc: r1}, `wire: event block: event 0 ends before it starts`},
		{event.Instance{Name: "x", Start: t0, Loc: r1}, `wire: event block: event 0 ends before it starts`},
		{event.Instance{Name: "x", Start: t0, End: t0.Add(-time.Second), Loc: r1}, `wire: event block: event 0 ends before it starts`},
		{event.Instance{Name: "x", Start: t0, End: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), Loc: r1},
			`wire: event block: event 0 ends before it starts`},
		{event.Instance{Name: "x", Start: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), End: t0, Loc: r1},
			`wire: event block: event 0 ends before it starts`},
		{event.Instance{Name: "x", Start: t0, End: t0, Loc: locus.Location{Type: locus.Type(200), A: "r1"}},
			`wire: event block: event 0: unknown locus type`},
	} {
		_, err := Decode(AppendEvents(nil, []event.Instance{tc.in}))
		if err == nil || err.Error() != tc.want {
			t.Errorf("decode(%+v): err %v, want %q", tc.in, err, tc.want)
		}
	}

	// A malformed or non-canonical attribute section is refused, naming
	// the event.
	x := AppendEvents(nil, []event.Instance{{Name: "x", Start: t0, End: t0, Loc: r1}})
	bare := x[:len(x)-1]
	for _, tc := range []struct {
		section []byte
		want    string
	}{
		{nil, `wire: event block: event 0: truncated attribute count`},
		{[]byte{1, 9, 'k'}, `wire: event block: event 0: truncated string`},
		{[]byte{2, 1, 'b', 0, 1, 'a', 0}, `wire: event block: event 0: attribute section not in canonical form`},
		{[]byte{0, 0}, `wire: event block: 1 trailing bytes`},
	} {
		if _, err := Decode(append(bare[:len(bare):len(bare)], tc.section...)); err == nil || err.Error() != tc.want {
			t.Errorf("section %x: err %v, want %q", tc.section, err, tc.want)
		}
	}

	v1 := append([]byte(nil), x...)
	v1[4] = 1
	if _, err := Decode(v1); err == nil || err.Error() != "wire: unsupported version 1" {
		t.Errorf("a version 1 batch: err %v, want it refused by name", err)
	}
}

// TestDecodeTruncated walks every prefix of a valid batch through Decode:
// all must fail cleanly (never panic, never accept a torn batch).
func TestDecodeTruncated(t *testing.T) {
	enc := AppendEvents(nil, goldenEvents())
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n:n]); err == nil {
			t.Fatalf("Decode accepted %d-byte prefix of %d-byte batch", n, len(enc))
		}
	}
	if _, err := Decode(append(enc[:len(enc):len(enc)], 0xff)); err == nil {
		t.Fatal("Decode accepted batch with trailing garbage")
	}
}

func BenchmarkDecodeEvents(b *testing.B) {
	ins := make([]event.Instance, 1000)
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range ins {
		at := t0.Add(time.Duration(i) * time.Millisecond)
		ins[i] = event.Instance{
			Name: event.InterfaceUp, Start: at, End: at,
			Loc: locus.At(locus.Interface, "load-r7"),
		}
	}
	enc := AppendEvents(nil, ins)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
