package replica

import (
	"bytes"
	"io"
	"testing"

	"grca/internal/wal"
)

// FuzzStreamDecode drives the replication stream decoder — WAL framing
// outside, protocol messages inside — with arbitrary bytes: torn
// frames, flipped CRCs, truncated segment hand-offs, absurd lengths.
// The decoder must never panic, never allocate proportionally to a
// claimed (rather than delivered) size, and must classify every stream
// as some prefix of messages followed by clean EOF or ErrTornFrame.
func FuzzStreamDecode(f *testing.F) {
	// Seed with a well-formed journal stream: a hello, a record, a
	// checkpoint...
	var good []byte
	good = AppendHello(good, "boot-fuzz", StreamJournal, 12)
	good = AppendJournalRec(good, []byte{42, 'r', 'e', 'c'})
	good = AppendSnapBegin(good, 512, 64)
	good = AppendSnapChunk(good, bytes.Repeat([]byte{0xab}, 64))
	good = AppendSnapEnd(good)
	// ...the frames of a journal stream past dropped segments: an empty
	// checkpoint, then a tail segment's header shipped verbatim.
	good = AppendSnapEnd(AppendSnapBegin(good, 0, 0))
	good = AppendJournalRec(good, wal.AppendJournalSegmentHeader(nil,
		wal.JournalSegmentHeader{FirstSeq: 13, FirstID: 900, Offset: 1 << 20, Front: 880}))
	good = AppendHeartbeat(good, 99, 1234, 5)
	good = AppendEOF(good, "seal")
	f.Add(good)
	// ...its truncations (torn frames and a mid-payload cut)...
	f.Add(good[:len(good)-3])
	f.Add(good[:5])
	// ...a CRC flip, a huge claimed length, and junk.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte("not a stream at all"))
	// A protocol-3 hello (a shard count between boot ID and stream kind):
	// refused by its version, whatever follows it.
	v3 := []byte{MsgHello, 3, 4, 'b', 'o', 'o', 't', 4, StreamJournal, 24}
	if m, err := ParseMsg(v3); err == nil {
		f.Fatalf("a protocol-3 hello parsed: %+v", m)
	}
	f.Add(appendMsg(nil, v3))
	// Protocol-4 and -5 hellos: the bytes a v6 hello has but for the
	// version.
	for _, v := range []byte{4, 5} {
		old := []byte{MsgHello, v, 9, 'b', 'o', 'o', 't', '-', 'f', 'u', 'z', 'z', StreamJournal, 24}
		if m, err := ParseMsg(old); err == nil {
			f.Fatalf("a protocol-%d hello parsed: %+v", v, m)
		}
		f.Add(appendMsg(nil, old))
	}
	// A checkpoint whose bound overflows an int, and a header whose first
	// ID lies below its front.
	f.Add(AppendSnapBegin(nil, -1, -1))
	f.Add(AppendJournalRec(nil, wal.AppendJournalSegmentHeader(nil,
		wal.JournalSegmentHeader{FirstSeq: 13, FirstID: 10, Front: 11})))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(wal.NewFrameReader(bytes.NewReader(data)))
		msgs := 0
		for {
			m, err := r.Next()
			if err == io.EOF || err == wal.ErrTornFrame {
				break
			}
			if err != nil {
				// A framed-but-bogus payload: fine, but it must not loop.
				break
			}
			// Parsed fields must stay within the bounds ParseMsg promises.
			if m.WALNext < 0 {
				t.Fatalf("heartbeat WAL frontier out of bounds: %d", m.WALNext)
			}
			if m.Next < 0 || m.Size < 0 {
				t.Fatalf("snapshot announcement out of bounds: next %d, size %d", m.Next, m.Size)
			}
			if r, err := wal.ParseJournalRecord(m.Rec); m.Type == MsgJournalRec && err == nil && r.Kind == wal.JournalSegmentKind {
				// What the follower does with a header: parse it; garbage is
				// an error, never a panic or a negative position.
				if h, err := wal.ParseJournalSegmentHeader(m.Rec); err == nil && (h.FirstSeq < 0 || h.FirstID < 0 || h.Offset < 0) {
					t.Fatalf("segment header out of bounds: %+v", h)
				}
			}
			msgs++
			if msgs > 1<<20 {
				t.Fatal("decoder emitted over a million messages from a bounded input")
			}
		}
	})
}
