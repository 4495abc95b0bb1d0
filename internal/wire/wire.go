// Package wire implements the compact binary batch format of the
// fast-path ingest pipeline. A wire batch carries exactly what one JSON
// POST /v1/ingest body carries — either a raw feed chunk (source +
// lines) or a slice of normalized event instances — but skips the JSON
// codec entirely: strings are uvarint-length-prefixed, times are
// (seconds, nanos) varints, and every event record is length-prefixed so
// a decoder can bound its reads before touching field bytes.
//
// Layout (all integers little-endian or varint as noted):
//
//	batch     = magic "GRCW" | version (1 byte, =1) | kind (1 byte) | payload
//	kind      = 1 (events) | 2 (feed)
//	events    = uvarint count | count × record
//	record    = uvarint len | len bytes of event
//	event     = name string | varint startSec | uvarint startNanos
//	          | varint endSec | uvarint endNanos
//	          | locus type name string | A string | B string
//	          | uvarint nattrs | nattrs × (key string, value string)
//	feed      = source string | lines string
//	string    = uvarint byte length | bytes
//
// Locus types travel as their canonical names (the same contract as the
// JSON API), never as numeric codes, so the format does not depend on
// enum ordering. Attribute keys are written in sorted order so encoding
// is deterministic; decoders accept any order.
//
// Decode validates events with the same rules — and the same error
// strings — as the JSON path's EventJSON.instance, so a malformed batch
// is rejected identically no matter which encoding carried it. Decode
// never panics and never reads past the declared bounds of the buffer;
// FuzzDecode enforces both.
package wire

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// ContentType is the media type negotiated on POST /v1/ingest for wire
// batches (JSON remains the default).
const ContentType = "application/x-grca-wire"

// Batch kinds.
const (
	KindEvents = 1
	KindFeed   = 2
)

const (
	version    = 1
	headerSize = 6 // magic + version + kind

	// maxEvents bounds the declared batch size so a corrupt count cannot
	// drive a huge allocation before any record bytes are read.
	maxEvents = 1 << 20
	// maxRecord bounds one encoded event record.
	maxRecord = 1 << 20
)

var magic = [4]byte{'G', 'R', 'C', 'W'}

// A Batch is one decoded wire body: either Events (KindEvents) or
// Source+Lines (KindFeed).
type Batch struct {
	Kind   int
	Events []event.Instance
	Source string
	Lines  string
}

// AppendEvents appends a KindEvents batch for ins to b and returns the
// extended slice. IDs are not encoded — the store assigns them.
func AppendEvents(b []byte, ins []event.Instance) []byte {
	b = appendHeader(b, KindEvents)
	b = binary.AppendUvarint(b, uint64(len(ins)))
	var rec []byte
	for i := range ins {
		rec = appendEvent(rec[:0], &ins[i])
		b = binary.AppendUvarint(b, uint64(len(rec)))
		b = append(b, rec...)
	}
	return b
}

// AppendFeed appends a KindFeed batch to b and returns the extended
// slice.
func AppendFeed(b []byte, source, lines string) []byte {
	b = appendHeader(b, KindFeed)
	b = appendString(b, source)
	return appendString(b, lines)
}

func appendHeader(b []byte, kind byte) []byte {
	b = append(b, magic[:]...)
	return append(b, version, kind)
}

func appendEvent(b []byte, in *event.Instance) []byte {
	b = appendString(b, in.Name)
	b = binary.AppendVarint(b, in.Start.Unix())
	b = binary.AppendUvarint(b, uint64(in.Start.Nanosecond()))
	b = binary.AppendVarint(b, in.End.Unix())
	b = binary.AppendUvarint(b, uint64(in.End.Nanosecond()))
	b = appendString(b, in.Loc.Type.String())
	b = appendString(b, in.Loc.A)
	b = appendString(b, in.Loc.B)
	return in.Attrs.AppendSection(b)
}

// IsWire reports whether p starts with the wire magic — the cheap
// body-sniff the server uses alongside the Content-Type header.
func IsWire(p []byte) bool {
	return len(p) >= 4 && p[0] == magic[0] && p[1] == magic[1] && p[2] == magic[2] && p[3] == magic[3]
}

// Decode parses one wire batch. Event validation applies the same rules,
// with the same error text, as the JSON ingest path: a batch with any
// invalid event is rejected whole.
func Decode(p []byte) (Batch, error) {
	var out Batch
	if len(p) < headerSize {
		return out, fmt.Errorf("wire: short header (%d bytes)", len(p))
	}
	if !IsWire(p) {
		return out, fmt.Errorf("wire: bad magic")
	}
	if p[4] != version {
		return out, fmt.Errorf("wire: unsupported version %d", p[4])
	}
	kind := p[5]
	p = p[headerSize:]
	switch kind {
	case KindEvents:
		out.Kind = KindEvents
		n, sz := binary.Uvarint(p)
		if sz <= 0 || n > maxEvents {
			return out, fmt.Errorf("wire: bad event count")
		}
		p = p[sz:]
		out.Events = make([]event.Instance, 0, min(int(n), 4096))
		tab := make(interner, 64)
		for i := uint64(0); i < n; i++ {
			recLen, sz := binary.Uvarint(p)
			if sz <= 0 || recLen > maxRecord || recLen > uint64(len(p)-sz) {
				return out, fmt.Errorf("wire: truncated record %d/%d", i, n)
			}
			rec := p[sz : sz+int(recLen)]
			p = p[sz+int(recLen):]
			in, err := decodeEvent(rec, tab)
			if err != nil {
				return out, err
			}
			out.Events = append(out.Events, in)
		}
		if len(p) != 0 {
			return out, fmt.Errorf("wire: %d trailing bytes after batch", len(p))
		}
		return out, nil
	case KindFeed:
		out.Kind = KindFeed
		var err error
		if out.Source, p, err = readString(p); err != nil {
			return out, fmt.Errorf("wire: feed source: %v", err)
		}
		if out.Lines, p, err = readString(p); err != nil {
			return out, fmt.Errorf("wire: feed lines: %v", err)
		}
		if len(p) != 0 {
			return out, fmt.Errorf("wire: %d trailing bytes after batch", len(p))
		}
		return out, nil
	default:
		return out, fmt.Errorf("wire: unknown batch kind %d", kind)
	}
}

// interner deduplicates strings within one Decode call. Event names and
// locus elements repeat heavily inside a batch (attribute keys too, but
// those stay inside each event's packed event.Attrs), so sharing one
// allocation per distinct value keeps a 1000-event batch from allocating
// thousands of identical short strings. The map lookup on a []byte key
// is allocation-free (the compiler elides the conversion); only the
// first occurrence pays for the copy.
type interner map[string]string

func (tab interner) intern(b []byte) string {
	if s, ok := tab[string(b)]; ok {
		return s
	}
	s := string(b)
	tab[s] = s
	return s
}

func readInterned(b []byte, tab interner) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", b, fmt.Errorf("truncated string")
	}
	return tab.intern(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// decodeEvent parses one event record and validates it exactly as the
// JSON path's EventJSON.instance does — same checks, same error strings.
func decodeEvent(p []byte, tab interner) (event.Instance, error) {
	var in event.Instance
	name, p, err := readInterned(p, tab)
	if err != nil {
		return in, fmt.Errorf("wire: event name: %v", err)
	}
	start, p, err := readTime(p)
	if err != nil {
		return in, fmt.Errorf("wire: event %q start: %v", name, err)
	}
	end, p, err := readTime(p)
	if err != nil {
		return in, fmt.Errorf("wire: event %q end: %v", name, err)
	}
	typeName, p, err := readInterned(p, tab)
	if err != nil {
		return in, fmt.Errorf("wire: event %q locus type: %v", name, err)
	}
	a, p, err := readInterned(p, tab)
	if err != nil {
		return in, fmt.Errorf("wire: event %q locus: %v", name, err)
	}
	b, p, err := readInterned(p, tab)
	if err != nil {
		return in, fmt.Errorf("wire: event %q locus: %v", name, err)
	}
	attrs, p, err := event.ParseAttrs(p)
	switch err {
	case nil:
	case event.ErrAttrCount:
		return in, fmt.Errorf("wire: event %q: %v", name, err)
	case event.ErrAttrKey:
		return in, fmt.Errorf("wire: event %q attr key: %v", name, err)
	default:
		return in, fmt.Errorf("wire: event %q attr value: %v", name, err)
	}
	if len(p) != 0 {
		return in, fmt.Errorf("wire: event %q: %d trailing bytes", name, len(p))
	}

	// Validation — must mirror EventJSON.instance byte-for-byte so a bad
	// event is rejected with the same message on both encodings.
	if strings.TrimSpace(name) == "" {
		return in, fmt.Errorf("event name is required")
	}
	if start.IsZero() || end.IsZero() {
		return in, fmt.Errorf("event %q: start and end are required", name)
	}
	if end.Before(start) {
		return in, fmt.Errorf("event %q: end precedes start", name)
	}
	if start.Before(event.MinTime) || end.After(event.MaxTime) {
		return in, fmt.Errorf("event %q: %v", name, event.ErrTimeRange)
	}
	t, err := locus.ParseType(typeName)
	if err != nil {
		return in, fmt.Errorf("event %q: %v", name, err)
	}
	return event.Instance{
		Name: name, Start: start.UTC(), End: end.UTC(),
		Loc: locus.Location{Type: t, A: a, B: b}, Attrs: attrs,
	}, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", b, fmt.Errorf("truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// readTime decodes a (varint seconds, uvarint nanos) pair. Nanos ≥ 1e9
// are rejected rather than normalized so every instant has exactly one
// encoding.
func readTime(b []byte) (time.Time, []byte, error) {
	sec, sz := binary.Varint(b)
	if sz <= 0 {
		return time.Time{}, b, fmt.Errorf("truncated seconds")
	}
	b = b[sz:]
	nsec, sz := binary.Uvarint(b)
	if sz <= 0 || nsec >= 1e9 {
		return time.Time{}, b, fmt.Errorf("bad nanoseconds")
	}
	return time.Unix(sec, int64(nsec)).UTC(), b[sz:], nil
}
