// Package replica is the journal-shipping replication subsystem: a
// primary-side Source that tails the serving pipeline's ingest journal
// and streams it over HTTP, a follower-side reconnecting Client, and the
// Registry whose journal pin keeps on the primary's disk what a follower
// has yet to read.
//
// The stream reuses the WAL's record framing (len | CRC32C | payload),
// so the wire format is the on-disk format; each frame's payload is one
// protocol message: a type byte followed by a type-specific body. The
// journal stream ships the ingest journal's records in file order, which
// is dispatch order, so the follower applies records in arrival order
// through the same replay path crash recovery uses — same dense ID
// allocation, same store digest — and takes its own checkpoints where its
// primary rolled, as the primary does. The journal is segmented and its
// covered tail dropped (wal/journal.go): segment headers ship verbatim,
// and a follower whose resume point lies in a dropped segment is sent a
// store checkpoint before the retained tail — the snapshot's files end to
// end, which the follower keeps as its own (wal.ImageWriter). Records and
// checkpoints cross the wire as they lie on disk, and this package parses
// neither: what the source reads of a record, it reads through wal's one
// record codec. Heartbeats carry the primary's durable journal sequence
// and logical size (bytes ever journaled) and the store's next event ID —
// the lag signal.
//
// Frozen, not served: ShipWALOnce, WALSink, MsgWALRec and StreamWAL, the
// one-shot WAL shipping path bench/ measures.
package replica

import (
	"encoding/binary"
	"fmt"

	"grca/internal/wal"
)

// Protocol message types. One frame carries one message.
const (
	// MsgHello is the server's first frame on every stream: protocol
	// version, the primary's boot ID, the stream kind, and the resume point
	// the server honored.
	MsgHello byte = 1
	// MsgJournalRec carries one ingest-journal record. Journal-stream
	// only; records arrive in sequence order.
	MsgJournalRec byte = 2
	// MsgWALRec carries one event-WAL record in the legacy record encoding
	// (explicit store ID inside; a segment's block frames are expanded to
	// one each), in ascending ID order. Only ShipWALOnce sends it.
	MsgWALRec byte = 3
	// MsgSnapBegin announces a checkpoint: the follower's resume point lies
	// in dropped journal segments, so the latest snapshot ships before the
	// retained tail and replaces the live store's content. A size of zero
	// is the empty checkpoint of a primary that has no snapshot.
	MsgSnapBegin byte = 4
	// MsgSnapChunk carries one chunk of the snapshot image (a manifest
	// and its runs, wal.SnapshotImage), verbatim.
	MsgSnapChunk byte = 5
	// MsgSnapEnd closes the snapshot; WAL records from its next-ID bound
	// follow.
	MsgSnapEnd byte = 6
	// MsgHeartbeat carries the primary's durable journal sequence, the
	// journal's byte size, and the WAL frontier — the follower's lag inputs.
	MsgHeartbeat byte = 7
	// MsgEOF ends a stream deliberately (shutdown, seal) with a reason.
	MsgEOF byte = 8
)

// ProtocolVersion is this version's one format number: MsgHello carries
// it, and every data dir's FORMAT file holds it (DESIGN.md §11), so one
// bump covers disk and wire. Any change to a frame, a journal record, or
// what a checkpoint may hold bumps it. ParseMsg refuses a hello of any
// other version before it reads the fields that differ between versions,
// so no frame of a mismatched peer is ever applied. DESIGN.md §16 keeps
// what each earlier version differed in.
const ProtocolVersion = 10

// Stream kinds named in MsgHello; StreamWAL only by ShipWALOnce.
const (
	StreamJournal byte = 'j'
	StreamWAL     byte = 'w'
)

// maxID bounds the IDs and sizes a frame may carry so none turns negative
// as an int.
const maxID = 1 << 62

// Msg is one decoded protocol message; the populated fields depend on
// Type. Rec and Chunk alias the decoded frame's buffer — copy to retain
// across the next read.
type Msg struct {
	Type byte

	// MsgHello
	BootID string
	Stream byte
	From   int

	// MsgJournalRec, MsgWALRec
	Rec []byte
	// MsgSnapChunk
	Chunk []byte
	// MsgSnapBegin
	Next int
	Size int64

	// MsgHeartbeat
	Sealed       int   // highest sequence durably journaled
	JournalBytes int64 // the journal's logical size: bytes ever journaled
	WALNext      int   // the primary store's next event ID

	// MsgEOF
	Reason string
}

func appendStreamString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readStreamString(p []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return "", p, fmt.Errorf("replica: truncated string")
	}
	return string(p[sz : sz+int(n)]), p[sz+int(n):], nil
}

// appendMsg frames one encoded message payload onto b.
func appendMsg(b, payload []byte) []byte { return wal.AppendFrame(b, payload) }

// AppendHello frames a hello message onto b.
func AppendHello(b []byte, bootID string, stream byte, from int) []byte {
	p := make([]byte, 0, 32+len(bootID))
	p = append(p, MsgHello)
	p = binary.AppendUvarint(p, ProtocolVersion)
	p = appendStreamString(p, bootID)
	p = append(p, stream)
	p = binary.AppendVarint(p, int64(from))
	return appendMsg(b, p)
}

// AppendJournalRec frames one journal record (verbatim on-disk record
// bytes) onto b.
func AppendJournalRec(b []byte, rec []byte) []byte {
	p := make([]byte, 0, 1+len(rec))
	p = append(p, MsgJournalRec)
	p = append(p, rec...)
	return appendMsg(b, p)
}

// AppendWALRec frames one legacy WAL record (wal.SegmentRecords hands
// them out) onto b.
func AppendWALRec(b []byte, rec []byte) []byte {
	p := make([]byte, 0, 1+len(rec))
	p = append(p, MsgWALRec)
	p = append(p, rec...)
	return appendMsg(b, p)
}

// AppendSnapBegin frames a snapshot-bootstrap announcement onto b.
func AppendSnapBegin(b []byte, next int, size int64) []byte {
	p := make([]byte, 0, 32)
	p = append(p, MsgSnapBegin)
	p = binary.AppendUvarint(p, uint64(next))
	p = binary.AppendUvarint(p, uint64(size))
	return appendMsg(b, p)
}

// AppendSnapChunk frames one snapshot file chunk onto b.
func AppendSnapChunk(b []byte, chunk []byte) []byte {
	p := make([]byte, 0, 1+len(chunk))
	p = append(p, MsgSnapChunk)
	p = append(p, chunk...)
	return appendMsg(b, p)
}

// AppendSnapEnd frames the snapshot terminator onto b.
func AppendSnapEnd(b []byte) []byte { return appendMsg(b, []byte{MsgSnapEnd}) }

// AppendHeartbeat frames a lag heartbeat onto b: the highest durably
// journaled sequence, the journal's byte size, and the store's next event
// ID on the primary.
func AppendHeartbeat(b []byte, sealed int, journalBytes int64, walNext int) []byte {
	p := make([]byte, 0, 32)
	p = append(p, MsgHeartbeat)
	p = binary.AppendVarint(p, int64(sealed))
	p = binary.AppendUvarint(p, uint64(journalBytes))
	p = binary.AppendUvarint(p, uint64(walNext))
	return appendMsg(b, p)
}

// AppendEOF frames a deliberate end-of-stream onto b.
func AppendEOF(b []byte, reason string) []byte {
	p := make([]byte, 0, 1+len(reason)+8)
	p = append(p, MsgEOF)
	p = appendStreamString(p, reason)
	return appendMsg(b, p)
}

// ParseMsg decodes one frame payload into a Msg. It never panics on
// arbitrary input and bounds every allocation — torn frames, bad CRCs,
// and truncated hand-offs are the callers' (FrameReader's) department;
// this guards the payload layer.
func ParseMsg(p []byte) (Msg, error) {
	if len(p) < 1 {
		return Msg{}, fmt.Errorf("replica: empty message")
	}
	m := Msg{Type: p[0]}
	p = p[1:]
	switch m.Type {
	case MsgHello:
		ver, sz := binary.Uvarint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated hello version")
		}
		if ver != ProtocolVersion {
			// Fatal: reconnecting into the same peer cannot change it.
			return m, Fatal(fmt.Errorf("the peer speaks protocol version %d, this node %d", ver, ProtocolVersion))
		}
		p = p[sz:]
		var err error
		if m.BootID, p, err = readStreamString(p); err != nil {
			return m, err
		}
		if len(p) < 1 {
			return m, fmt.Errorf("replica: truncated hello stream kind")
		}
		m.Stream, p = p[0], p[1:]
		from, sz := binary.Varint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated hello resume point")
		}
		m.From = int(from)
	case MsgJournalRec, MsgWALRec:
		m.Rec = p
	case MsgSnapBegin:
		next, sz := binary.Uvarint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated snapshot next")
		}
		p = p[sz:]
		size, sz := binary.Uvarint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated snapshot size")
		}
		if next > maxID || size > maxID {
			return m, fmt.Errorf("replica: snapshot bound out of range")
		}
		m.Next, m.Size = int(next), int64(size)
	case MsgSnapChunk:
		m.Chunk = p
	case MsgSnapEnd, MsgEOF:
		if m.Type == MsgEOF {
			var err error
			if m.Reason, _, err = readStreamString(p); err != nil {
				return m, err
			}
		}
	case MsgHeartbeat:
		sealed, sz := binary.Varint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated heartbeat sealed seq")
		}
		p = p[sz:]
		m.Sealed = int(sealed)
		jb, sz := binary.Uvarint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated heartbeat journal bytes")
		}
		p = p[sz:]
		m.JournalBytes = int64(jb)
		wn, sz := binary.Uvarint(p)
		if sz <= 0 || wn > maxID {
			return m, fmt.Errorf("replica: bad heartbeat wal frontier")
		}
		m.WALNext = int(wn)
	default:
		return m, fmt.Errorf("replica: unknown message type %d", m.Type)
	}
	return m, nil
}

// Reader decodes protocol messages from a byte stream: WAL framing
// outside, ParseMsg inside. Next returns io.EOF at a clean frame
// boundary and wal.ErrTornFrame on a torn or corrupt frame.
type Reader struct {
	fr *wal.FrameReader
}

// NewReader wraps an incremental frame reader.
func NewReader(fr *wal.FrameReader) *Reader { return &Reader{fr: fr} }

// Next returns the next message. Msg buffers alias the reader's internal
// buffer — copy to retain across calls.
func (r *Reader) Next() (Msg, error) {
	payload, err := r.fr.Next()
	if err != nil {
		return Msg{}, err
	}
	return ParseMsg(payload)
}
