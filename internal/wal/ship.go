package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"grca/internal/event"
)

// Shipping support for the replication subsystem (internal/replica): the
// stream's framing is the on-disk framing, so the source tails journal
// files directly, and a checkpoint is a snapshot's files end to end. This
// file exports just enough of the framing and the dir layout to do that.
// Only the journal stream serves followers; what ships the event WAL
// itself (internal/replica's one-shot path, SegmentRecords and
// InstallSnapshotImage here) is frozen for bench/ and the chaos
// replication classes, and speaks legacy records, one a message.

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

// RecordID returns the store ID a legacy record carries.
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

// SnapshotImage is a snapshot under dir read as one stream: the manifest
// file's bytes, then the bytes of every run it references, in order — the
// form a follower bootstraps from. A run in the image is delimited by the
// size its manifest entry gives, and is a record file of either encoding,
// as on disk. Every run file is open from the moment the image exists, so
// the primary's compaction may delete them mid-stream without tearing it.
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
	hdr := m.encode()
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
// size and starts with a frame — a block file's magic frame or a legacy
// file's first record — which a run in a format this code does not read
// (one with a header) does not.
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
// bytes, already synced) the one snapshot under dir — its runs, each
// copied out under its own name, and the manifest over them, the form
// Snapshot writes — removes the staged file, and returns the snapshot's
// next-ID bound. The manifest is trusted no further than recovery trusts
// one: it must validate, the bytes behind it must be exactly its runs'
// sizes, and each run copied must have the CRC its entry gives before the
// manifest is written.
func InstallSnapshotImage(dir, path string) (next int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fr := NewFrameReader(f)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(fr.br, magic); err != nil || string(magic) != snapMagic {
		return 0, fmt.Errorf("wal: %s: not a snapshot image", path)
	}
	payload, err := fr.Next()
	if err != nil {
		return 0, fmt.Errorf("wal: %s: snapshot image manifest: %v", path, err)
	}
	m, err := decodeManifest(payload)
	if err != nil {
		return 0, fmt.Errorf("wal: %s: snapshot image manifest: %v", path, err)
	}
	// Hold the sizes the manifest claims against the bytes staged before
	// copying any.
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := int64(len(snapMagic) + frameHeader + len(payload))
	for _, r := range m.runs {
		size += r.size
	}
	if size != fi.Size() {
		return 0, fmt.Errorf("wal: %s: snapshot image of %d bytes, its manifest accounts for %d", path, fi.Size(), size)
	}
	for _, r := range m.runs {
		tmp, err := os.OpenFile(runFile(dir, r)+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, err
		}
		sum := &crcWriter{w: tmp}
		if _, err := io.CopyN(sum, fr.br, r.size); err != nil || sum.crc != r.crc {
			tmp.Close() //nolint:errcheck // already failing
			if err == nil {
				err = fmt.Errorf("wal: %s: run %s differs from its manifest entry", path, runName(r))
			}
			return 0, err
		}
		if err := commitFile(tmp, runFile(dir, r)); err != nil {
			return 0, err
		}
	}
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
// outside input, held to what recovery holds a snapshot to: the manifest
// must validate, each run must end on a frame boundary at its size with
// its CRC and count, and IDs must ascend inside its range.
type ImageDecoder struct {
	carry  []byte
	header bool
	m      manifest
	run    int        // the run being read
	left   int64      // its bytes not yet read
	crc    uint32     // its CRC32C so far
	frames fileFrames // its encoding
	held   int        // its instances decoded
	ins    []event.Instance
	err    error
}

// Write decodes every whole frame p completes; the first bad one is the
// decoder's error from then on.
func (d *ImageDecoder) Write(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	d.carry = append(d.carry, p...)
	if !d.header {
		if len(d.carry) < len(snapMagic) {
			return len(p), nil
		}
		if string(d.carry[:len(snapMagic)]) != snapMagic {
			return 0, d.fail(fmt.Errorf("wal: not a snapshot image"))
		}
		payload, rest, ok := readFrame(d.carry[len(snapMagic):])
		if !ok {
			return len(p), d.stalled()
		}
		m, err := decodeManifest(payload)
		if err != nil {
			return 0, d.fail(fmt.Errorf("wal: snapshot image manifest: %v", err))
		}
		d.m, d.header, d.carry = m, true, rest
		d.nextRun(0)
	}
	for len(d.carry) > 0 {
		if d.run == len(d.m.runs) {
			return 0, d.fail(fmt.Errorf("wal: snapshot image: %d bytes after its last run", len(d.carry)))
		}
		payload, rest, ok := readFrame(d.carry)
		if !ok {
			break
		}
		n := int64(len(d.carry) - len(rest))
		if n > d.left {
			return 0, d.fail(fmt.Errorf("wal: snapshot image: a frame crosses the end of run %s", runName(d.m.runs[d.run])))
		}
		d.crc = crc32.Update(d.crc, castagnoli, d.carry[:n])
		d.left -= n
		d.carry = rest
		if err := d.frame(payload); err != nil {
			return 0, d.fail(fmt.Errorf("wal: snapshot image run %s: %v", runName(d.m.runs[d.run]), err))
		}
		if d.left == 0 {
			if r := d.m.runs[d.run]; d.crc != r.crc || d.held != r.count {
				return 0, d.fail(fmt.Errorf("wal: snapshot image run %s holds %d records with CRC %08x, its entry %d with %08x", runName(r), d.held, d.crc, r.count, r.crc))
			}
			d.nextRun(d.run + 1)
		}
	}
	// Keep the torn remainder without pinning the consumed bytes.
	d.carry = append([]byte(nil), d.carry...)
	return len(p), d.stalled()
}

// nextRun starts reading run i (none past the last).
func (d *ImageDecoder) nextRun(i int) {
	d.run, d.crc, d.frames, d.held = i, 0, fileFrames{}, 0
	if i < len(d.m.runs) {
		d.left = d.m.runs[i].size
	}
}

// frame decodes one frame of the current run.
func (d *ImageDecoder) frame(p []byte) error {
	s, err := d.frames.span(p)
	if err != nil || s.count == 0 {
		return err
	}
	r, prev := d.m.runs[d.run], d.m.base-1
	if n := len(d.ins); n > 0 {
		prev = d.ins[n-1].ID
	}
	if s.first <= prev || s.first < r.lo || s.last >= r.hi || s.count > r.count-d.held {
		return fmt.Errorf("IDs %d…%d do not fit [%d,%d) × %d after ID %d", s.first, s.last, r.lo, r.hi, r.count, prev)
	}
	at := len(d.ins)
	d.ins = slices.Grow(d.ins, s.count)[:at+s.count]
	d.held += s.count
	return d.frames.decode(p, d.ins[at:])
}

func (d *ImageDecoder) fail(err error) error {
	d.err = err
	return err
}

// stalled reports a carry no frame can still complete: longer than the
// largest frame, it is damage and not a frame in flight.
func (d *ImageDecoder) stalled() error {
	if len(d.carry) > len(snapMagic)+frameHeader+maxRecord {
		d.err = fmt.Errorf("wal: snapshot image: torn or corrupt frame")
	}
	return d.err
}

// Finish returns the decoded state once every byte has been written.
func (d *ImageDecoder) Finish() (base, next int, ins []event.Instance, err error) {
	switch {
	case d.err != nil:
		return 0, 0, nil, d.err
	case !d.header || len(d.carry) != 0 || d.run != len(d.m.runs):
		return 0, 0, nil, fmt.Errorf("wal: snapshot image ends inside a frame or run")
	case len(d.ins) != d.m.live:
		return 0, 0, nil, fmt.Errorf("wal: snapshot image holds %d instances, its manifest says %d", len(d.ins), d.m.live)
	}
	return d.m.base, d.m.next, d.ins, nil
}

// SegmentRecords reads the frames of one segment file in order, handing
// out what each holds as legacy records (appendRecord) — what the one-shot
// shipping path sends and a WALSink writes: a legacy file's frame is its
// one record, a block frame one record per instance, the magic frame
// none. Use one per file.
type SegmentRecords struct {
	frames fileFrames
	ins    []event.Instance
	rec    []byte
}

// Frame calls fn with every record of the frame payload p whose ID is at
// least from, in ID order. rec is reused by the next record.
func (r *SegmentRecords) Frame(p []byte, from int, fn func(id int, rec []byte) error) error {
	s, err := r.frames.span(p)
	if err != nil || s.count == 0 || s.last < from {
		return err
	}
	if !r.frames.block {
		return fn(s.first, p)
	}
	r.ins = slices.Grow(r.ins[:0], s.count)[:s.count]
	if err := decodeBlockFrame(p, r.ins); err != nil {
		return err
	}
	for i := range r.ins {
		if in := &r.ins[i]; in.ID >= from {
			r.rec = appendRecord(r.rec[:0], in)
			if err := fn(in.ID, r.rec); err != nil {
				return err
			}
		}
	}
	return nil
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
