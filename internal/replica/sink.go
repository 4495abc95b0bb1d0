package replica

import (
	"fmt"
	"os"

	"grca/internal/wal"
)

// WALSink materializes a ShipWALOnce stream's records on disk, in the
// segment layout a Log uses (wal/seg-*.log), so that a plain wal.Open over
// the directory recovers it like a restarting Log recovers its own. Its
// segments hold the records as they arrive, one legacy record a frame,
// which wal.Open reads and never appends to. No follower runs one (a
// follower takes the journal stream); it is frozen for bench/, which
// measures its writes.
//
// Durability is asynchronous: records are written without fsync until
// Sync or Close. A crash tears off an unsynced tail; reopening resumes
// from the truncated frontier.
type WALSink struct {
	dir string
	// segBytes is the rotation threshold (primary default when zero).
	segBytes int64

	next    int // ID the next shipped record must carry or exceed
	seg     *os.File
	segSize int64
	frame   []byte
}

// OpenWALSink scans the WAL state under dir, truncates any torn tail
// (and drops segments beyond it), and returns a sink positioned at the
// first record ID not yet on disk — the resume point to request from
// the primary.
func OpenWALSink(dir string, segBytes int64) (*WALSink, error) {
	if segBytes <= 0 {
		segBytes = 64 << 20
	}
	if err := os.MkdirAll(wal.WALDirOf(dir), 0o755); err != nil {
		return nil, err
	}
	s := &WALSink{dir: dir, segBytes: segBytes}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan walks the segments exactly as recovery would: ascending IDs, a
// torn frame truncates the file there and drops later segments. It
// leaves next at one past the highest intact record and reopens the tail
// segment for append.
func (s *WALSink) scan() error {
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
		if last >= 0 {
			s.next = last + 1
		}
		tail, tailSize = seg.Path, off
	}
	if tail != "" {
		f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.seg, s.segSize = f, tailSize
	}
	return nil
}

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
	s.seg, s.segSize = f, 0
	return nil
}

// Close syncs and closes the active segment.
func (s *WALSink) Close() error {
	if s.seg == nil {
		return nil
	}
	err := fileSyncClose(s.seg)
	s.seg = nil
	return err
}

func fileSyncClose(f *os.File) error {
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
