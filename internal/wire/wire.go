// Package wire implements the binary encodings of the ingest path: the
// batch format of POST /v1/ingest's fast path, and inside it the event
// block (block.go), the one binary form of a batch of events from the
// client to the disk. A wire batch carries exactly what one JSON POST
// /v1/ingest body carries — either a raw feed chunk (source + lines) or a
// batch of normalized event instances — but skips the JSON codec.
//
// Layout (varints as in encoding/binary):
//
//	batch     = magic "GRCW" | version (1 byte, =2) | kind (1 byte) | payload
//	kind      = 1 (events) | 2 (feed)
//	events    = one event block
//	feed      = source string | lines string
//	string    = uvarint byte length | bytes
//
// An events payload is the same bytes the ingest journal and the event WAL
// hold for those events, so the server decodes it once, validates it, and
// journals it as it arrived. Version 1, which spelled every event out, is
// refused by name.
//
// Decode validates events with event.Instance.Check, the rules and the
// words of the JSON path, so a malformed batch is rejected whichever
// encoding carried it. Decode never panics and never reads past the
// declared bounds of the buffer; FuzzDecode enforces both.
package wire

import (
	"encoding/binary"
	"fmt"

	"grca/internal/event"
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
	magic      = "GRCW"
	version    = 2
	headerSize = 6 // magic + version + kind
)

// A Batch is one decoded wire body: either Events and the Block they
// were decoded from (KindEvents) or Source+Lines (KindFeed).
type Batch struct {
	Kind   int
	Events []event.Instance
	// Block is the events payload, a subslice of the decoded body: the
	// canonical event block of Events.
	Block  []byte
	Source string
	// Lines is the feed's lines, a subslice of the decoded body: the body
	// must not be reused while they are in use.
	Lines []byte
}

// AppendEvents appends a KindEvents batch for ins to b and returns the
// extended slice. IDs are not encoded — the store assigns them.
func AppendEvents(b []byte, ins []event.Instance) []byte {
	return AppendEventBlock(appendHeader(b, KindEvents), ins)
}

// AppendFeed appends a KindFeed batch to b and returns the extended
// slice.
func AppendFeed(b []byte, source, lines string) []byte {
	b = appendHeader(b, KindFeed)
	b = appendString(b, source)
	return appendString(b, lines)
}

func appendHeader(b []byte, kind byte) []byte {
	b = append(b, magic...)
	return append(b, version, kind)
}

// Decode parses one wire batch. Every event of an events batch must pass
// event.Instance.Check: a batch with any invalid event is rejected whole.
func Decode(p []byte) (Batch, error) {
	var out Batch
	if len(p) < headerSize {
		return out, fmt.Errorf("wire: short header (%d bytes)", len(p))
	}
	if string(p[:len(magic)]) != magic {
		return out, fmt.Errorf("wire: bad magic")
	}
	if p[4] != version {
		return out, fmt.Errorf("wire: unsupported version %d", p[4])
	}
	kind := p[5]
	p = p[headerSize:]
	switch kind {
	case KindEvents:
		ins, err := DecodeEventBlock(p)
		if err != nil {
			return out, fmt.Errorf("wire: %v", err)
		}
		for i := range ins {
			if err := ins[i].Check(); err != nil {
				return out, err
			}
		}
		out.Kind, out.Events, out.Block = KindEvents, ins, p
		return out, nil
	case KindFeed:
		out.Kind = KindFeed
		var err error
		var src []byte
		if src, p, err = readBytes(p); err != nil {
			return out, fmt.Errorf("wire: feed source: %v", err)
		}
		out.Source = string(src)
		if out.Lines, p, err = readBytes(p); err != nil {
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

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readBytes returns the length-prefixed string at the head of b, as a
// subslice of b, and what follows it.
func readBytes(b []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return nil, b, fmt.Errorf("truncated string")
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}
