package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/store"
	"grca/internal/wire"
)

// Framing: every frame — in segments, runs, manifests and the journal
// alike — is
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// The CRC is Castagnoli (CRC32C), the polynomial storage systems
// standardize on for record checksums. A frame whose header is short,
// whose length is absurd, or whose CRC does not match marks the end of
// the committed prefix: recovery truncates there instead of failing.
const (
	frameHeader = 8
	// maxRecord bounds a single frame so a corrupted length field cannot
	// drive a multi-gigabyte allocation during recovery.
	maxRecord = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed payload to b.
func appendFrame(b, payload []byte) []byte {
	at := len(b)
	b = append(b, make([]byte, frameHeader)...)
	return sealFrame(append(b, payload...), at)
}

// sealFrame fills in the header of the frame at b[at:], whose payload
// was appended behind the header's room.
func sealFrame(b []byte, at int) []byte {
	p := b[at+frameHeader:]
	binary.LittleEndian.PutUint32(b[at:], uint32(len(p)))
	binary.LittleEndian.PutUint32(b[at+4:], crc32.Checksum(p, castagnoli))
	return b
}

// readFrame decodes one frame at the front of b, returning the payload
// and the remaining bytes. ok is false when b holds no complete, intact
// frame — the torn-tail signal.
func readFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, b, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > maxRecord || int(n) > len(b)-frameHeader {
		return nil, b, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, b, false
	}
	return payload, b[frameHeader+int(n):], true
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", b, fmt.Errorf("wal: truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// appendRecord encodes one legacy record: the instance's store ID
// followed by the instance body — what a frame of a legacy segment or run
// holds, what StoreDigest hashes, and what the one-shot shipping path
// sends. IDs are explicit because the sequence may be sparse (retention
// trims it, a failed batch leaves its IDs unused), so a record's position
// in the log does not determine its ID.
func appendRecord(b []byte, in *event.Instance) []byte {
	b = binary.AppendUvarint(b, uint64(in.ID))
	return appendInstance(b, in)
}

// recordID reads just the leading ID of a legacy record — what a frame
// scan needs to decide skip-or-replay without paying for a full decode.
func recordID(p []byte) (int, error) {
	id, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, fmt.Errorf("wal: truncated record ID")
	}
	return int(id), nil
}

// decodeRecord decodes a legacy record into the instance it stores,
// with its ID set.
func decodeRecord(p []byte) (event.Instance, error) {
	id, sz := binary.Uvarint(p)
	if sz <= 0 {
		return event.Instance{}, fmt.Errorf("wal: truncated record ID")
	}
	in, err := decodeInstance(p[sz:])
	in.ID = int(id)
	return in, err
}

// appendInstance encodes one event instance (without its store ID — the
// record and snapshot encoders prefix the ID themselves). Attribute keys
// are sorted so the encoding is deterministic.
func appendInstance(b []byte, in *event.Instance) []byte {
	b = appendString(b, in.Name)
	b = binary.AppendVarint(b, in.Start.UnixNano())
	b = binary.AppendVarint(b, in.End.UnixNano())
	b = append(b, byte(in.Loc.Type))
	b = appendString(b, in.Loc.A)
	b = appendString(b, in.Loc.B)
	return in.Attrs.AppendSection(b)
}

func decodeInstance(p []byte) (event.Instance, error) {
	var in event.Instance
	var err error
	if in.Name, p, err = readString(p); err != nil {
		return in, err
	}
	start, sz := binary.Varint(p)
	if sz <= 0 {
		return in, fmt.Errorf("wal: truncated start time")
	}
	p = p[sz:]
	end, sz := binary.Varint(p)
	if sz <= 0 {
		return in, fmt.Errorf("wal: truncated end time")
	}
	p = p[sz:]
	in.Start = time.Unix(0, start).UTC()
	in.End = time.Unix(0, end).UTC()
	if len(p) < 1 {
		return in, fmt.Errorf("wal: truncated location type")
	}
	in.Loc.Type = locus.Type(p[0])
	p = p[1:]
	if in.Loc.A, p, err = readString(p); err != nil {
		return in, err
	}
	if in.Loc.B, p, err = readString(p); err != nil {
		return in, err
	}
	if in.Attrs, p, err = event.ParseAttrs(p); err != nil {
		return in, fmt.Errorf("wal: %v", err)
	}
	if len(p) != 0 {
		return in, fmt.Errorf("wal: %d trailing bytes after instance", len(p))
	}
	return in, nil
}

// Record files — segments and runs — come in two encodings, told apart by
// their first frame. A block file, every one this version writes, opens
// with the magic frame, payload "GRCABLK1", and every frame after it is a
// block frame of instances with ascending IDs:
//
//	uvarint first ID | uvarint last ID | uvarint count
//	| (count − 1) × uvarint (ID − previous ID − 1)  — only when count < last − first + 1
//	| event block of the count instances (wire.AppendEventBlock)
//
// A legacy file — what earlier versions wrote, read and never written —
// has no magic frame, and each of its frames is one record (appendRecord).
// No legacy file begins with the magic: read as a record it is ID 71 and a
// name 82 bytes long with 6 left. The first and last ID lead a block frame
// so that a scan deciding skip-or-replay reads them without decoding an
// event; dense IDs, the usual commit group, cost nothing more.
const blockMagic = "GRCABLK1"

// magicFrame is the frame every block file opens with.
var magicFrame = appendFrame(nil, []byte(blockMagic))

// A commit group or a run is cut into block frames of at most
// maxBlockEvents instances, a frame closing early once its instances'
// strings pass maxBlockBytes: no frame comes near maxRecord (a lone event
// is bounded by the ingest body cap), and a parallel decode has units.
const (
	maxBlockEvents = 4096
	maxBlockBytes  = 1 << 20
)

// blockLen returns how many instances from the front of ins the next
// block frame takes.
func blockLen(ins []event.Instance) int {
	n, size := 0, 0
	for n < len(ins) && n < maxBlockEvents && size < maxBlockBytes {
		in := &ins[n]
		size += len(in.Name) + len(in.Loc.A) + len(in.Loc.B) + in.Attrs.SectionLen()
		n++
	}
	return n
}

// appendBlockFrame appends ins — IDs ascending, at most blockLen of them
// — to b as one framed block.
func appendBlockFrame(b []byte, ins []event.Instance) []byte {
	at := len(b)
	b = append(b, make([]byte, frameHeader)...)
	first, last := ins[0].ID, ins[len(ins)-1].ID
	b = binary.AppendUvarint(b, uint64(first))
	b = binary.AppendUvarint(b, uint64(last))
	b = binary.AppendUvarint(b, uint64(len(ins)))
	if len(ins) < last-first+1 {
		for i := 1; i < len(ins); i++ {
			b = binary.AppendUvarint(b, uint64(ins[i].ID-ins[i-1].ID-1))
		}
	}
	return sealFrame(wire.AppendEventBlock(b, ins), at)
}

// span is what a frame of a record file holds, read off its header: the
// IDs of its first and last instance and how many it holds.
type span struct{ first, last, count int }

// blockSpan reads a block frame's header, every field bounded: IDs in
// order, no more instances than IDs between them or than the bytes behind
// the header could carry. rest is what follows the header.
func blockSpan(p []byte) (s span, rest []byte, err error) {
	u := uvarints{p, true}
	s.first, s.last, s.count = u.next(), u.next(), u.next()
	if !u.ok || s.count < 1 || s.first > s.last || s.count > s.last-s.first+1 || s.count > len(u.p)/wire.MinBlockEvent {
		return s, nil, fmt.Errorf("wal: bad block header")
	}
	return s, u.p, nil
}

// decodeBlockFrame decodes a block frame into dst, which has room for
// exactly its count of instances, IDs set. Decoding is total: the IDs must
// land on the header's last, and the block must hold the header's count.
func decodeBlockFrame(p []byte, dst []event.Instance) error {
	s, p, err := blockSpan(p)
	if err != nil {
		return err
	}
	if len(dst) != s.count {
		return fmt.Errorf("wal: block of %d instances decoded into %d", s.count, len(dst))
	}
	sparse := s.count < s.last-s.first+1
	id := s.first
	for i := range dst {
		if i > 0 {
			var g uint64
			if sparse {
				var sz int
				if g, sz = binary.Uvarint(p); sz <= 0 {
					return fmt.Errorf("wal: truncated block ID gap")
				}
				p = p[sz:]
			}
			if g >= uint64(s.last-id) {
				return fmt.Errorf("wal: block IDs run past %d", s.last)
			}
			id += int(g) + 1
		}
		dst[i].ID = id // the event block sets every field but this one
	}
	if id != s.last {
		return fmt.Errorf("wal: block IDs end at %d, its header says %d", id, s.last)
	}
	if err := wire.DecodeEventBlockTo(dst, p); err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	return nil
}

// fileFrames reads the frames of one record file in order. The first
// tells the encoding: the magic frame makes it a block file, any other is
// the first record of a legacy file.
type fileFrames struct {
	n     int // frames read
	block bool
}

// span reads the span of the file's next frame p; the magic frame's holds
// no instance.
func (f *fileFrames) span(p []byte) (span, error) {
	f.n++
	if f.n == 1 && string(p) == blockMagic {
		f.block = true
		return span{}, nil
	}
	if f.block {
		s, _, err := blockSpan(p)
		return s, err
	}
	id, err := recordID(p)
	return span{id, id, 1}, err
}

// decode decodes a frame whose span the file's scan read into dst, which
// has room for exactly its count.
func (f *fileFrames) decode(p []byte, dst []event.Instance) error {
	if f.block {
		return decodeBlockFrame(p, dst)
	}
	in, err := decodeRecord(p)
	dst[0] = in
	return err
}

// StoreDigest returns a hex SHA-256 over the store's full dumped state —
// ID bounds plus every live instance in canonical encoding. Two stores
// with equal digests hold byte-identical event data; it is the
// equivalence check behind the crash-recovery guarantees.
func StoreDigest(st store.Store) string {
	h := sha256.New()
	var buf []byte
	st.SnapshotTo(func(base, next, _ int) error { //nolint:errcheck // neither callback fails
		buf = binary.AppendUvarint(buf, uint64(base))
		buf = binary.AppendUvarint(buf, uint64(next))
		h.Write(buf)
		return nil
	}, func(in *event.Instance) error {
		buf = appendRecord(buf[:0], in)
		h.Write(buf)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
