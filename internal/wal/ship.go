package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"grca/internal/event"
)

// Shipping support for the replication subsystem (internal/replica): the
// stream's wire format is the on-disk format, so the source tails
// segment and journal files directly and followers write what they
// receive. This file exports just enough of the framing and the dir
// layout to do that. Only the journal stream serves followers; what ships
// the event WAL itself (internal/replica's one-shot path, and
// InstallSnapshotImage here) is frozen for bench/ and the chaos
// replication classes.

// FrameHeader is the byte length of a record frame's header.
const FrameHeader = frameHeader

// MaxRecord bounds a single framed record; a streamed length beyond it
// is treated as corruption, exactly as recovery treats it on disk.
const MaxRecord = maxRecord

// AppendFrame appends payload to b under the standard record framing.
func AppendFrame(b, payload []byte) []byte { return appendFrame(b, payload) }

// ReadFrame decodes one frame at the front of b; ok is false when b
// holds no complete, intact frame (the torn-tail signal).
func ReadFrame(b []byte) (payload, rest []byte, ok bool) { return readFrame(b) }

// RecordID returns the store ID carried by an encoded segment record.
func RecordID(p []byte) (int, error) { return recordID(p) }

// FrameReader incrementally decodes record frames from a byte stream —
// the streaming counterpart of ReadFrame for consumers that cannot hold
// the whole log in memory (the replication client). Next returns io.EOF
// at a clean frame boundary, ErrTornFrame when the stream ends or
// corrupts mid-frame, and the reader's own error when a read fails.
type FrameReader struct {
	br      *bufio.Reader
	hdr     [frameHeader]byte
	payload []byte
}

// ErrTornFrame reports a stream that ended or corrupted inside a frame:
// a short header, an absurd length, a truncated payload, or a CRC
// mismatch.
var ErrTornFrame = fmt.Errorf("wal: torn or corrupt frame")

// NewFrameReader wraps r for incremental frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next frame's payload. The returned slice is reused
// by the following call — copy it to retain. io.EOF means the stream
// ended cleanly between frames.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:1]); err != nil {
		return nil, err // io.EOF: a clean boundary
	}
	if _, err := io.ReadFull(fr.br, fr.hdr[1:]); err != nil {
		return nil, tornOr(err)
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if n > maxRecord {
		return nil, ErrTornFrame
	}
	if cap(fr.payload) < int(n) {
		fr.payload = make([]byte, n)
	}
	fr.payload = fr.payload[:n]
	if _, err := io.ReadFull(fr.br, fr.payload); err != nil {
		return nil, tornOr(err)
	}
	if crc32.Checksum(fr.payload, castagnoli) != binary.LittleEndian.Uint32(fr.hdr[4:8]) {
		return nil, ErrTornFrame
	}
	return fr.payload, nil
}

// tornOr maps a stream that ended inside a frame to ErrTornFrame; a read
// that failed for another reason keeps its error, so that a consumer that
// truncates torn tails (ReplayJournal) never cuts a file it could not
// read.
func tornOr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTornFrame
	}
	return err
}

// Segment describes one on-disk WAL segment file.
type Segment struct {
	Path  string
	First int // ID of the segment's first record (its name)
}

// Segments lists dir's WAL segments ascending by first ID.
func Segments(dir string) ([]Segment, error) {
	paths, firsts, err := listNumbered(walDir(dir), "seg-", ".log")
	if err != nil {
		return nil, err
	}
	out := make([]Segment, len(paths))
	for i := range paths {
		out[i] = Segment{Path: paths[i], First: firsts[i]}
	}
	return out, nil
}

// LatestSnapshot returns the next-ID bound of the newest snapshot
// manifest under dir; ok is false when no snapshot exists.
func LatestSnapshot(dir string) (next int, ok bool, err error) {
	_, nums, err := listNumbered(snapDir(dir), "snap-", ".snap")
	if err != nil || len(nums) == 0 {
		return 0, false, err
	}
	return nums[len(nums)-1], true, nil
}

// imageMagic opens a snapshot image on the wire. (The bytes are those of
// the header run files once carried, so the stream did not change when
// the files lost it.)
const imageMagic = "GRCARUN1"

// appendImageHeader appends an image's header: the magic and one frame,
// uvarint base | next | live.
func appendImageHeader(b []byte, base, next, live int) []byte {
	var p []byte
	p = binary.AppendUvarint(p, uint64(base))
	p = binary.AppendUvarint(p, uint64(next))
	p = binary.AppendUvarint(p, uint64(live))
	return appendFrame(append(b, imageMagic...), p)
}

// SnapshotImage is a snapshot under dir read as one stream: a header
// saying it covers [base, next) with so many instances, followed by the
// bytes of every run the manifest references, in order — the form a
// follower bootstraps from. Every run file is open from the moment the
// image exists, so the primary's compaction may delete them mid-stream
// without tearing it.
type SnapshotImage struct {
	Next int   // the snapshot's next-ID bound
	Size int64 // total bytes Read will deliver
	io.Reader
	files []*os.File
}

// OpenSnapshotImage opens the newest snapshot under dir whose manifest
// parses and whose runs are all present at their recorded size. It
// returns nil when dir holds no such snapshot.
func OpenSnapshotImage(dir string) (*SnapshotImage, error) {
	snaps, _, err := listNumbered(snapDir(dir), "snap-", ".snap")
	if err != nil {
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		m, err := readManifest(snaps[i])
		if err != nil {
			continue
		}
		if im := openImage(dir, m); im != nil {
			return im, nil
		}
	}
	return nil, nil
}

func openImage(dir string, m manifest) *SnapshotImage {
	hdr := appendImageHeader(nil, m.base, m.next, m.live)
	im := &SnapshotImage{Next: m.next, Size: int64(len(hdr))}
	parts := []io.Reader{bytes.NewReader(hdr)}
	for _, r := range m.runs {
		f, err := os.Open(runFile(dir, r))
		if err != nil {
			im.Close()
			return nil
		}
		im.files = append(im.files, f)
		if !looksLikeRun(f, r) {
			im.Close()
			return nil
		}
		parts = append(parts, io.NewSectionReader(f, 0, r.size))
		im.Size += r.size
	}
	im.Reader = io.MultiReader(parts...)
	return im
}

// looksLikeRun reports whether the open run file f is at r's recorded
// size and starts with a record frame — which a run in a format this code
// does not write (one with a header) does not.
func looksLikeRun(f *os.File, r runInfo) bool {
	if fi, err := f.Stat(); err != nil || fi.Size() != r.size {
		return false
	}
	var hdr [frameHeader]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	return n <= maxRecord && n <= r.size-frameHeader
}

// Close releases the image's run files.
func (im *SnapshotImage) Close() {
	for _, f := range im.files {
		f.Close() //nolint:errcheck // read-only
	}
}

// InstallSnapshotImage makes the image staged at path (a SnapshotImage's
// bytes, already synced) the one snapshot under dir — a single run and
// the manifest over it, the same form Snapshot writes — and returns its
// next-ID bound. A run file is records and nothing else, so the records
// are copied out from behind the image's header and the staged file is
// removed. The header is trusted no further than recovery trusts any
// file: the manifest records the size and CRC of the bytes actually
// copied, and Open validates the records against them.
func InstallSnapshotImage(dir, path string) (next int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fr := NewFrameReader(f)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(fr.br, magic); err != nil || string(magic) != imageMagic {
		return 0, fmt.Errorf("wal: %s: not a snapshot image", path)
	}
	hdr, err := fr.Next()
	if err != nil {
		return 0, fmt.Errorf("wal: %s: snapshot image header: %v", path, err)
	}
	u := uvarints{hdr, true}
	run := runInfo{lo: u.next(), hi: u.next(), count: u.next()}
	if !u.ok || len(u.p) != 0 {
		return 0, fmt.Errorf("wal: %s: bad snapshot image header", path)
	}
	// Hold the announced count against the bytes staged before copying any.
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	run.size = fi.Size() - int64(len(imageMagic)+frameHeader+len(hdr))
	m := manifest{base: run.lo, next: run.hi, live: run.count}
	if run.count > 0 {
		m.runs = []runInfo{run}
	}
	if err := m.validate(); err != nil {
		return 0, fmt.Errorf("wal: %s: snapshot image header: %v", path, err)
	}
	if run.count > 0 {
		tmp, err := os.OpenFile(runFile(dir, run)+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, err
		}
		sum := &crcWriter{w: tmp}
		if _, err := io.Copy(sum, fr.br); err != nil {
			tmp.Close() //nolint:errcheck // already failing
			return 0, err
		}
		m.runs[0].size, m.runs[0].crc = sum.size, sum.crc
		if err := commitFile(tmp, runFile(dir, run)); err != nil {
			return 0, err
		}
	}
	// An empty store's image is its header: the manifest says it all.
	if err := os.Remove(path); err != nil {
		return 0, err
	}
	if _, err := writeManifest(dir, m); err != nil {
		return 0, err
	}
	return m.next, nil
}

// ImageDecoder decodes a SnapshotImage's bytes, fed in whatever pieces
// they arrive in, into the store state they carry: the ID bounds and
// the live instances, ready for store.Memory.Replace. The bytes are
// outside input — the header is held against the records actually read,
// and IDs must ascend inside [base, next).
type ImageDecoder struct {
	carry      []byte
	header     bool
	base, next int
	live       int
	ins        []event.Instance
	err        error
}

// Write decodes every whole frame p completes; the first bad one is the
// decoder's error from then on.
func (d *ImageDecoder) Write(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	d.carry = append(d.carry, p...)
	if !d.header {
		if len(d.carry) < len(imageMagic) {
			return len(p), nil
		}
		if string(d.carry[:len(imageMagic)]) != imageMagic {
			d.err = fmt.Errorf("wal: not a snapshot image")
			return 0, d.err
		}
		hdr, rest, ok := readFrame(d.carry[len(imageMagic):])
		if !ok {
			return len(p), d.stalled()
		}
		u := uvarints{hdr, true}
		d.base, d.next, d.live = u.next(), u.next(), u.next()
		if !u.ok || len(u.p) != 0 || d.base > d.next || d.live > d.next-d.base {
			d.err = fmt.Errorf("wal: bad snapshot image header")
			return 0, d.err
		}
		d.header, d.carry = true, rest
	}
	for {
		payload, rest, ok := readFrame(d.carry)
		if !ok {
			break
		}
		in, err := decodeRecord(payload)
		prev := d.base - 1
		if n := len(d.ins); n > 0 {
			prev = d.ins[n-1].ID
		}
		if err != nil || in.ID <= prev || in.ID >= d.next || len(d.ins) == d.live {
			d.err = fmt.Errorf("wal: snapshot image record %d (ID %d) does not fit [%d,%d) × %d: %v", len(d.ins), in.ID, d.base, d.next, d.live, err)
			return 0, d.err
		}
		d.ins = append(d.ins, in)
		d.carry = rest
	}
	// Keep the torn remainder without pinning the consumed bytes.
	d.carry = append([]byte(nil), d.carry...)
	return len(p), d.stalled()
}

// stalled reports a carry no frame can still complete: longer than the
// largest record, it is damage and not a frame in flight.
func (d *ImageDecoder) stalled() error {
	if len(d.carry) > len(imageMagic)+frameHeader+maxRecord {
		d.err = fmt.Errorf("wal: snapshot image: torn or corrupt frame")
	}
	return d.err
}

// Finish returns the decoded state once every byte has been written.
func (d *ImageDecoder) Finish() (base, next int, ins []event.Instance, err error) {
	switch {
	case d.err != nil:
		return 0, 0, nil, d.err
	case !d.header || len(d.carry) != 0:
		return 0, 0, nil, fmt.Errorf("wal: snapshot image ends inside a frame")
	case len(d.ins) != d.live:
		return 0, 0, nil, fmt.Errorf("wal: snapshot image holds %d instances, header says %d", len(d.ins), d.live)
	}
	return d.base, d.next, d.ins, nil
}

// SegPath returns the segment path for a segment whose first record
// carries the given ID.
func SegPath(dir string, first int) string { return segPath(dir, first) }

// WALDirOf and SnapDirOf expose the fixed sub-directory layout.
func WALDirOf(dir string) string  { return walDir(dir) }
func SnapDirOf(dir string) string { return snapDir(dir) }

// Frontier returns the next record ID the log expects — one past the
// highest ID ever appended (buffered records included).
func (l *Log) Frontier() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Floor returns the next-ID bound of the older of the two retained
// snapshot manifests (0 with fewer than two): every record with a lower
// ID is held by a snapshot that was durable before the latest one began,
// so losing the latest loses none of them. The serving pipeline drops
// the ingest journal behind it.
func (l *Log) Floor() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}
