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
// files directly, and a checkpoint is a snapshot's files end to end — its
// runs adopted journal segments or block files — which a follower writes
// back as those files (ImageWriter). This file exports just enough of the
// framing and the dir layout to do that. Only the journal stream serves
// followers; what ships the event WAL itself (internal/replica's one-shot
// path, SegmentRecords here) is frozen for bench/, and speaks legacy
// records, one a message.

// FrameHeader is the byte length of a record frame's header.
const FrameHeader = frameHeader

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
// size its manifest entry gives, and is a record file of any encoding, as
// on disk. Every run file is open from the moment the image exists, so
// the primary's compaction may delete them mid-stream without tearing it.
type SnapshotImage struct {
	Next int   // the snapshot's next-ID bound
	Size int64 // total bytes Read will deliver
	io.Reader
	files []*os.File
}

// OpenSnapshotImage opens the newest snapshot under dir whose manifest
// parses and whose runs are all present at their recorded size; what the
// runs hold is the follower's to check, with recovery's reader. It returns
// nil when dir holds no such snapshot.
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
		if fi, err := f.Stat(); err != nil || fi.Size() != r.size {
			im.Close()
			return nil
		}
		parts = append(parts, io.NewSectionReader(f, 0, r.size))
		im.Size += r.size
	}
	im.Reader = io.MultiReader(parts...)
	return im
}

// Close releases the image's run files.
func (im *SnapshotImage) Close() {
	for _, f := range im.files {
		f.Close() //nolint:errcheck // read-only
	}
}

// ImageWriter writes a SnapshotImage's bytes, fed in whatever pieces
// they arrive in, into a data dir's snap/ as the files the image is made
// of: each run under its name, held to its manifest entry's size and CRC
// and synced before it is renamed into place. The manifest is held back
// for Checkpointer.Install, which writes it once the caller has checked
// the image against where its journal resumes, and reads the store back
// from it as recovery does. A run the stream cut short stays a temp file,
// which the next compaction removes; no manifest references it.
type ImageWriter struct {
	// Next is the image's next-ID bound, as announced; the manifest must
	// agree.
	Next  int
	dir   string
	size  int64     // bytes announced
	left  int64     // of them, not yet written
	carry []byte    // the image's first bytes, until the manifest is whole
	m     *manifest // nil until then, and for the empty image
	run   int       // the run being written, or next to be
	f     *os.File  // its temp file, while open
	cw    crcWriter
	err   error
}

// NewImageWriter writes an image of size bytes and next-ID bound next
// under dir's snap/. Size 0 is the empty image: no manifest, no run, and
// next 0.
func NewImageWriter(dir string, next int, size int64) *ImageWriter {
	return &ImageWriter{Next: next, dir: dir, size: size, left: size}
}

// Write writes p's bytes where they belong; the first error is the
// writer's from then on.
func (w *ImageWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	if w.left -= int64(n); w.left < 0 {
		return 0, w.fail(fmt.Errorf("wal: snapshot image runs past its announced %d bytes", w.size))
	}
	if w.m == nil {
		w.carry = append(w.carry, p...)
		k := min(len(w.carry), len(snapMagic))
		if string(w.carry[:k]) != snapMagic[:k] {
			return 0, w.fail(fmt.Errorf("wal: not a snapshot image"))
		}
		payload, rest, ok := readFrame(w.carry[k:])
		if !ok {
			if len(w.carry) > len(snapMagic)+frameHeader+maxRecord {
				return 0, w.fail(fmt.Errorf("wal: snapshot image: torn or corrupt manifest frame"))
			}
			return n, nil
		}
		m, err := decodeManifest(payload)
		if err == nil && m.next != w.Next {
			err = fmt.Errorf("it covers IDs below %d, announced %d", m.next, w.Next)
		}
		if err != nil {
			return 0, w.fail(fmt.Errorf("wal: snapshot image manifest: %v", err))
		}
		w.m, w.carry, p = &m, nil, rest
	}
	for len(p) > 0 {
		if w.run == len(w.m.runs) {
			return 0, w.fail(fmt.Errorf("wal: snapshot image: %d bytes after its last run", len(p)))
		}
		r := w.m.runs[w.run]
		if w.f == nil {
			f, err := os.OpenFile(runFile(w.dir, r)+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				return 0, w.fail(err)
			}
			w.f, w.cw = f, crcWriter{w: f}
		}
		k := min(int64(len(p)), r.size-w.cw.size)
		if _, err := w.cw.Write(p[:k]); err != nil {
			return 0, w.fail(err)
		}
		p = p[k:]
		if w.cw.size < r.size {
			break
		}
		if w.cw.crc != r.crc {
			return 0, w.fail(fmt.Errorf("wal: snapshot image run %s: CRC %08x, its entry %08x", runName(r), w.cw.crc, r.crc))
		}
		f := w.f
		w.f = nil
		if err := commitFile(f, runFile(w.dir, r)); err != nil {
			return 0, w.fail(err)
		}
		mSnapBytes.Add(r.size)
		w.run++
	}
	return n, nil
}

// Finish reports whether every announced byte arrived and made the image
// whole: the manifest and each of its runs in place.
func (w *ImageWriter) Finish() error {
	switch {
	case w.err != nil:
		return w.err
	case w.left != 0:
		return fmt.Errorf("wal: snapshot image is %d bytes short of its announced %d", w.left, w.size)
	case w.m == nil && w.size == 0 && w.Next == 0:
		return nil // the empty image
	case w.m == nil || w.run != len(w.m.runs):
		return fmt.Errorf("wal: snapshot image ends inside a frame or run")
	}
	return nil
}

// Close abandons the image: the run being written stays a temp file.
func (w *ImageWriter) Close() {
	if w.f != nil {
		w.f.Close() //nolint:errcheck // abandoned; compaction collects the temp file
		w.f = nil
	}
}

// fail makes err the writer's and abandons the image.
func (w *ImageWriter) fail(err error) error {
	w.Close()
	w.err = err
	return err
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
