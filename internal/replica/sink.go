package replica

import (
	"fmt"
	"os"
	"path/filepath"

	"grca/internal/wal"
)

// WALSink materializes a ShipWALOnce stream on disk, in the layout a
// primary uses (wal/seg-*.log segments, a snap/snap-*.snap manifest over
// snap/run-*.run), so that a plain wal.Open over the directory recovers
// it like a restarting primary recovers its own log. Its segments hold the
// stream's records as they arrive, one legacy record a frame, which
// wal.Open reads and never appends to; a bootstrap installs the primary's
// manifest and runs. No follower runs one (a follower writes its own WAL
// from its own store); it is frozen for bench/ and the chaos replica-lag
// and partition classes.
//
// Durability is asynchronous: records are written without fsync until
// Sync or Close. A crash tears off an unsynced tail; reopening resumes
// from the truncated frontier.
type WALSink struct {
	dir string
	// segBytes is the rotation threshold (primary default when zero).
	segBytes int64

	next     int // ID the next shipped record must carry or exceed
	seg      *os.File
	segPath  string
	segSize  int64
	frame    []byte
	snapTmp  *os.File
	snapNext int
	snapSize int64
	snapWant int64
}

// OpenWALSink scans the WAL state under dir, truncates any torn tail
// (and drops segments beyond it), and returns a sink positioned at the
// first record ID not yet on disk — the resume point to request from
// the primary.
func OpenWALSink(dir string, segBytes int64) (*WALSink, error) {
	if segBytes <= 0 {
		segBytes = 64 << 20
	}
	for _, sub := range []string{wal.WALDirOf(dir), wal.SnapDirOf(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	s := &WALSink{dir: dir, segBytes: segBytes}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan walks the segments exactly as recovery would: ascending IDs, a
// torn frame truncates the file there and drops later segments. It
// leaves next at one past the highest intact record (or the snapshot
// bound when that is higher) and reopens the tail segment for append.
func (s *WALSink) scan() error {
	snapNext, ok, err := wal.LatestSnapshot(s.dir)
	if err != nil {
		return err
	}
	if ok {
		s.next = snapNext
	}
	segs, err := wal.Segments(s.dir)
	if err != nil {
		return err
	}
	torn := false
	var tail string
	var tailSize int64
	for _, seg := range segs {
		if torn {
			if err := os.Remove(seg.Path); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			return err
		}
		off := int64(0)
		rest := data
		last := -1
		for len(rest) > 0 {
			payload, r2, ok := wal.ReadFrame(rest)
			if !ok {
				torn = true
				if err := os.Truncate(seg.Path, off); err != nil {
					return err
				}
				break
			}
			id, err := wal.RecordID(payload)
			if err != nil {
				return fmt.Errorf("replica: sink %s: %v", seg.Path, err)
			}
			if id <= last {
				return fmt.Errorf("replica: sink %s: record ID %d not ascending", seg.Path, id)
			}
			last = id
			off += int64(wal.FrameHeader + len(payload))
			rest = r2
		}
		if last >= s.next-1 && last >= 0 {
			s.next = last + 1
		}
		tail, tailSize = seg.Path, off
	}
	if tail != "" {
		f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.seg, s.segPath, s.segSize = f, tail, tailSize
	}
	return nil
}

// Frontier returns the next record ID the sink needs — the resume point
// for the stream request.
func (s *WALSink) Frontier() int { return s.next }

// WriteRecord appends one shipped legacy record. Records below the
// frontier (re-shipped after a reconnect) are dropped; IDs must
// otherwise ascend.
func (s *WALSink) WriteRecord(rec []byte) error {
	id, err := wal.RecordID(rec)
	if err != nil {
		return err
	}
	if id < s.next {
		return nil
	}
	if s.seg == nil || s.segSize >= s.segBytes {
		if err := s.rotateAt(id); err != nil {
			return err
		}
	}
	s.frame = wal.AppendFrame(s.frame[:0], rec)
	n, err := s.seg.Write(s.frame)
	s.segSize += int64(n)
	if err != nil {
		return err
	}
	s.next = id + 1
	return nil
}

// rotateAt closes the active segment and opens a fresh one named for
// first. O_TRUNC (not O_EXCL, as the primary uses): a reconnect after a
// total truncation may legitimately land on a name left by a removed
// run, and stale bytes under the same name must not survive.
func (s *WALSink) rotateAt(first int) error {
	if s.seg != nil {
		if err := fileSyncClose(s.seg); err != nil {
			return err
		}
		s.seg = nil
	}
	path := wal.SegPath(s.dir, first)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	s.seg, s.segPath, s.segSize = f, path, 0
	return nil
}

// BeginSnapshot starts a snapshot bootstrap: the primary compacted past
// our frontier, so the local WAL state is unusable — wipe every segment
// and snapshot file and stage the shipped snapshot image into a temp
// file.
func (s *WALSink) BeginSnapshot(next int, size int64) error {
	if s.seg != nil {
		s.seg.Close() //nolint:errcheck // the file is about to be deleted
		s.seg = nil
	}
	if s.snapTmp != nil {
		s.snapTmp.Close() //nolint:errcheck // restarting the bootstrap
		s.snapTmp = nil
	}
	segs, err := wal.Segments(s.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := os.Remove(seg.Path); err != nil {
			return err
		}
	}
	snaps, err := os.ReadDir(wal.SnapDirOf(s.dir)) // manifests, runs, a torn bootstrap's temp file
	if err != nil {
		return err
	}
	for _, e := range snaps {
		if err := os.Remove(filepath.Join(wal.SnapDirOf(s.dir), e.Name())); err != nil {
			return err
		}
	}
	tmp := filepath.Join(wal.SnapDirOf(s.dir), "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	s.snapTmp, s.snapNext, s.snapWant, s.snapSize = f, next, size, 0
	return nil
}

// WriteSnapshotChunk appends one shipped snapshot chunk.
func (s *WALSink) WriteSnapshotChunk(chunk []byte) error {
	if s.snapTmp == nil {
		return fmt.Errorf("replica: snapshot chunk outside a bootstrap")
	}
	n, err := s.snapTmp.Write(chunk)
	s.snapSize += int64(n)
	return err
}

// EndSnapshot commits the staged snapshot image (size-checked, synced,
// installed as its runs under its manifest) and moves the frontier to its
// bound; WAL records from there follow on the stream.
func (s *WALSink) EndSnapshot() error {
	if s.snapTmp == nil {
		return fmt.Errorf("replica: snapshot end outside a bootstrap")
	}
	f := s.snapTmp
	s.snapTmp = nil
	if s.snapSize != s.snapWant {
		f.Close() //nolint:errcheck // already failing
		return fmt.Errorf("replica: snapshot bootstrap got %d bytes, announced %d", s.snapSize, s.snapWant)
	}
	if err := fileSyncClose(f); err != nil {
		return err
	}
	next, err := wal.InstallSnapshotImage(s.dir, f.Name())
	if err != nil {
		return err
	}
	if next != s.snapNext {
		return fmt.Errorf("replica: snapshot bootstrap covers IDs below %d, announced %d", next, s.snapNext)
	}
	s.next = next
	return nil
}

// Sync forces shipped records to stable storage (heartbeat cadence).
func (s *WALSink) Sync() error {
	if s.seg == nil {
		return nil
	}
	return s.seg.Sync()
}

// Close syncs and closes the active segment and any staged snapshot.
func (s *WALSink) Close() error {
	var first error
	if s.snapTmp != nil {
		if err := s.snapTmp.Close(); err != nil {
			first = err
		}
		s.snapTmp = nil
	}
	if s.seg != nil {
		if err := fileSyncClose(s.seg); err != nil && first == nil {
			first = err
		}
		s.seg = nil
	}
	return first
}

func fileSyncClose(f *os.File) error {
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
