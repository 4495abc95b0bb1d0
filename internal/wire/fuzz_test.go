package wire

import (
	"bytes"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// FuzzDecode feeds arbitrary bytes to Decode, which must never panic and
// never over-read. An events batch it accepts is canonical — it
// re-encodes to the very bytes it was decoded from — and a feed batch it
// accepts re-encodes to one that decodes to it again.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GRCW"))
	f.Add([]byte{'G', 'R', 'C', 'W', version, KindEvents, 0x80})
	f.Add(AppendEvents(nil, goldenEvents()))
	f.Add(AppendFeed(nil, "syslog", "Jan  2 03:04:05 r1 %SYS-5-RESTART: x\n"))
	// A count far larger than the payload: must fail without allocating
	// for the declared size.
	f.Add([]byte{'G', 'R', 'C', 'W', version, KindEvents, 0xff, 0xff, 0x3f})
	long := event.Instance{
		Name:  "long",
		Start: time.Unix(0, 1).UTC(), End: time.Unix(1<<30, 999999999).UTC(),
		Loc:   locus.Between(locus.SourceDestination, "a", "b"),
		Attrs: event.NewAttrs(map[string]string{"k": string(make([]byte, 300))}),
	}
	f.Add(AppendEvents(nil, []event.Instance{long, long}))
	// FuzzEventBlock's corpus, as events batches.
	for _, seed := range blockSeeds() {
		f.Add(append(appendHeader(nil, KindEvents), seed...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data[:len(data):len(data)])
		if err != nil {
			return
		}
		switch b.Kind {
		case KindEvents:
			if enc := AppendEvents(nil, b.Events); !bytes.Equal(enc, data) {
				t.Fatalf("%x decoded to %d events, which encode as %x", data, len(b.Events), enc)
			}
		case KindFeed:
			b2, err := Decode(AppendFeed(nil, b.Source, string(b.Lines)))
			if err != nil || b2.Kind != KindFeed || b2.Source != b.Source || !bytes.Equal(b2.Lines, b.Lines) {
				t.Fatalf("re-decode of the re-encoded feed batch: %+v, %v; want %+v", b2, err, b)
			}
		default:
			t.Fatalf("Decode returned unknown kind %d without error", b.Kind)
		}
	})
}
