package wal

import (
	"io"
	"os"
)

// Journal is a flat append-only file of opaque framed records — the same
// CRC32C framing as segments, without sequence numbers or snapshots. The
// serving pipeline journals raw ingest batches here: the event WAL can
// recover the normalized store byte-for-byte, but the collector's parse
// state (routing simulations, pairing buffers, rolling baselines) is a
// function of the raw input, so restart recovery replays this journal
// through a fresh collector. Appends fsync before returning; an
// acknowledged batch survives kill -9.
type Journal struct {
	f    *os.File
	path string
	buf  []byte
}

// ReplayJournal streams every committed record of the journal at path to
// fn, truncating a torn tail in place (the longest-committed-prefix
// contract, as for segments). It reads through a fixed buffer, so a
// journal of any size replays in the memory of its largest record; the
// payload fn sees is reused by the next call. A missing file is an empty
// journal.
func ReplayJournal(path string, fn func(payload []byte) error) (truncated int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fr := NewFrameReader(f)
	off := int64(0)
	for {
		payload, err := fr.Next()
		switch err {
		case nil:
		case io.EOF:
			return 0, nil
		case ErrTornFrame:
			fi, err := f.Stat()
			if err != nil {
				return 0, err
			}
			return fi.Size() - off, os.Truncate(path, off)
		default:
			return 0, err
		}
		if err := fn(payload); err != nil {
			return 0, err
		}
		off += int64(frameHeader + len(payload))
	}
}

// JournalSize returns the byte size of the journal at path, 0 for one
// not yet created.
func JournalSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// OpenJournal opens (creating as needed) the journal at path for
// appending. Replay first: opening does not validate existing content.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, path: path}, nil
}

// Append frames, writes, and fsyncs one record. This is the serving
// pipeline's batch commit point.
func (j *Journal) Append(payload []byte) error {
	if err := j.AppendNoSync(payload); err != nil {
		return err
	}
	return j.Sync()
}

// AppendNoSync frames and writes one record without forcing it to disk.
// Pair with Sync to commit a group of records under one fsync: none of
// the group is acknowledged until the Sync returns, so the durability
// contract is per-group instead of per-record.
func (j *Journal) AppendNoSync(payload []byte) error {
	j.buf = appendFrame(j.buf[:0], payload)
	_, err := j.f.Write(j.buf)
	return err
}

// Sync forces everything written so far to stable storage.
func (j *Journal) Sync() error { return fileSync(j.f) }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }
