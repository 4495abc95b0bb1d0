package wire

import (
	"bytes"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// FuzzDecode feeds arbitrary bytes to Decode, which must never panic and
// never over-read: whatever it returns on success must re-encode and
// re-decode to the same value (a decoded batch is always a valid one).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GRCW"))
	f.Add([]byte{'G', 'R', 'C', 'W', 1, 1, 0x80})
	f.Add(AppendEvents(nil, goldenEvents()))
	f.Add(AppendFeed(nil, "syslog", "Jan  2 03:04:05 r1 %SYS-5-RESTART: x\n"))
	// A count far larger than the payload: must fail without allocating
	// for the declared size.
	f.Add([]byte{'G', 'R', 'C', 'W', 1, 1, 0xff, 0xff, 0x3f})
	long := event.Instance{
		Name:  "long",
		Start: time.Unix(0, 1).UTC(), End: time.Unix(1<<40, 999999999).UTC(),
		Loc:   locus.Between(locus.SourceDestination, "a", "b"),
		Attrs: event.NewAttrs(map[string]string{"k": string(make([]byte, 300))}),
	}
	f.Add(AppendEvents(nil, []event.Instance{long, long}))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		// Successful decodes must round-trip: re-encode and compare the
		// decoded forms (the re-encoding may differ from data — unsorted
		// attributes, padded varints — so compare semantically).
		var enc []byte
		switch b.Kind {
		case KindEvents:
			enc = AppendEvents(nil, b.Events)
		case KindFeed:
			enc = AppendFeed(nil, b.Source, b.Lines)
		default:
			t.Fatalf("Decode returned unknown kind %d without error", b.Kind)
		}
		b2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		if b2.Kind != b.Kind || len(b2.Events) != len(b.Events) ||
			b2.Source != b.Source || b2.Lines != b.Lines {
			t.Fatalf("re-decode mismatch: %+v vs %+v", b, b2)
		}
		// What Decode returns is canonical, so decode → encode → decode
		// is a fixed point, attributes and bytes both.
		for i := range b.Events {
			if b2.Events[i].Attrs != b.Events[i].Attrs {
				t.Fatalf("event %d: attributes %+v re-decoded as %+v", i, b.Events[i].Attrs, b2.Events[i].Attrs)
			}
		}
		if b.Kind == KindEvents && !bytes.Equal(AppendEvents(nil, b2.Events), enc) {
			t.Fatalf("re-encoding the re-decoded batch changed its bytes")
		}
	})
}
