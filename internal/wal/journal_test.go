package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestReplayJournalStreams: a 64 MB journal replays through a fixed
// buffer — the heap never grows by the file's size — and a torn tail is
// cut at the byte the last whole record ends on, as a scan of the whole
// file in memory would cut it.
func TestReplayJournalStreams(t *testing.T) {
	const records, payloadLen = 1024, 64 << 10
	path := filepath.Join(t.TempDir(), "journal.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("G-RCA "), payloadLen/6+1)[:payloadLen]
	for i := 0; i < records; i++ {
		binary.LittleEndian.PutUint32(payload, uint32(i))
		if err := j.AppendNoSync(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	const whole = records * (frameHeader + payloadLen)
	torn := appendFrame(nil, payload)[:payloadLen/2]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapAlloc, uint64(0)
	replay := func() (seen int, truncated int64) {
		t.Helper()
		truncated, err := ReplayJournal(path, func(p []byte) error {
			if len(p) != payloadLen || binary.LittleEndian.Uint32(p) != uint32(seen) {
				t.Fatalf("record %d arrived as %d bytes starting %x", seen, len(p), p[:4])
			}
			if seen++; seen%64 == 0 {
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapAlloc)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen, truncated
	}
	if seen, truncated := replay(); seen != records || truncated != int64(len(torn)) {
		t.Fatalf("replayed %d records and cut %d bytes, want %d and %d", seen, truncated, records, len(torn))
	}
	if peak > base+8<<20 {
		t.Fatalf("heap grew by %d bytes replaying a %d-byte journal, want under 8 MB", peak-base, whole)
	}
	if size := JournalSize(path); size != whole {
		t.Fatalf("journal cut to %d bytes, want %d", size, whole)
	}
	if seen, truncated := replay(); seen != records || truncated != 0 {
		t.Fatalf("second replay saw %d records and cut %d bytes, want %d and none", seen, truncated, records)
	}
}

// jrec is a journal record as the serving pipeline frames one: sequence,
// a kind that is not the header's, no source, a body.
func jrec(seq int, body string) []byte {
	b := binary.AppendUvarint(nil, uint64(seq))
	return append(append(b, 3, 0), body...)
}

// TestSegmentedJournalRollDropRecover drives the journal through its
// life — head, rolls, drops — and at each stage holds what recovery lists
// against what the appender believes: names, headers, logical offset.
func TestSegmentedJournalRollDropRecover(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenSegmentedJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := j.AppendNoSync(jrec(seq, "body-of-a-batch")); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendN(3)
	if len(j.Tail()) != 0 || j.Offset() != JournalSize(JournalHead(dir)) {
		t.Fatalf("before the first roll: tail %v, offset %d, journal.log %d bytes", j.Tail(), j.Offset(), JournalSize(JournalHead(dir)))
	}
	headSize := j.Offset()
	for k := 0; k < 4; k++ {
		h := JournalSegmentHeader{FirstSeq: seq, FirstID: 10 * seq, Front: 10 * seq}
		if err := j.Roll(h, nil, false); err != nil {
			t.Fatal(err)
		}
		appendN(5)
	}
	if got := JournalOffset(dir); got != j.Offset() {
		t.Fatalf("JournalOffset reads %d off the files, the appender counts %d", got, j.Offset())
	}
	if JournalSize(JournalHead(dir)) != headSize {
		t.Fatal("journal.log grew after the first roll")
	}
	// Drop the two oldest; the active one cannot go.
	for k := 0; k < 2; k++ {
		if err := j.DropOldest(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.SyncDir(); err != nil {
		t.Fatal(err)
	}
	end := j.Offset()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	tail, err := RecoverJournalTail(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0].Header.FirstSeq != 13 || tail[1].Header.FirstSeq != 18 {
		t.Fatalf("recovered tail %+v, want the segments from sequence 13 and 18", tail)
	}
	if tail[0].Header.Offset <= headSize || tail[0].Header.Offset+tail[0].Size != tail[1].Header.Offset {
		t.Fatalf("offsets: head %d bytes, tail %+v", headSize, tail)
	}
	// Each file replays its own records, the header first.
	for _, seg := range tail {
		want := seg.Header.FirstSeq
		first := true
		torn, err := ScanJournal(seg.Path, func(p []byte) error {
			if first {
				first = false
				h, err := ParseJournalSegmentHeader(p)
				if err != nil || h.FirstSeq != want || h.FirstID != 10*want {
					t.Fatalf("%s: header %+v, %v", seg.Path, h, err)
				}
				return nil
			}
			if got, _ := binary.Uvarint(p); int(got) != want {
				t.Fatalf("%s: record %d where %d belongs", seg.Path, got, want)
			}
			want++
			return nil
		})
		if err != nil || torn >= 0 {
			t.Fatalf("%s: torn at %d, %v", seg.Path, torn, err)
		}
	}
	j, err = OpenSegmentedJournal(dir, tail)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Offset() != end || len(j.Tail()) != 2 {
		t.Fatalf("reopened at offset %d with %d tail segments, closed at %d with 2", j.Offset(), len(j.Tail()), end)
	}
	if err := j.DropOldest(); err != nil {
		t.Fatal(err)
	}
	if err := j.DropOldest(); err == nil {
		t.Fatal("dropped the active segment")
	}
}

// TestRecoverJournalTailCrashCuts: a roll killed before its header is
// durable leaves a file that holds nothing and is removed; a tail with a
// segment missing from its middle, or a file under another's name, is
// refused.
func TestRecoverJournalTailCrashCuts(t *testing.T) {
	build := func(t *testing.T) (string, []JournalSegment) {
		dir := t.TempDir()
		j, err := OpenSegmentedJournal(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 9; seq++ {
			if seq%3 == 0 && seq > 0 {
				if err := j.Roll(JournalSegmentHeader{FirstSeq: seq, FirstID: seq, Front: seq}, nil, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.AppendNoSync(jrec(seq, "x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		tail, err := RecoverJournalTail(dir)
		if err != nil || len(tail) != 2 {
			t.Fatalf("tail %+v, %v", tail, err)
		}
		return dir, tail
	}
	t.Run("headerless last file", func(t *testing.T) {
		dir, tail := build(t)
		hdr := appendFrame(nil, AppendJournalSegmentHeader(nil, JournalSegmentHeader{FirstSeq: 9, FirstID: 9, Front: 9}))
		for _, cut := range []int{0, 3, len(hdr) - 1} {
			path := journalSegPath(dir, 9)
			if err := os.WriteFile(path, hdr[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := RecoverJournalTail(dir)
			if err != nil || len(got) != len(tail) {
				t.Fatalf("cut %d: tail %+v, %v", cut, got, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("cut %d: the headerless file is still there: %v", cut, err)
			}
		}
	})
	t.Run("segment missing from the middle", func(t *testing.T) {
		dir, tail := build(t)
		j, err := OpenSegmentedJournal(dir, tail)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Roll(JournalSegmentHeader{FirstSeq: 9, FirstID: 9, Front: 9}, nil, false); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if err := os.Remove(tail[1].Path); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverJournalTail(dir); err == nil {
			t.Fatal("a tail with a hole in its middle was accepted")
		}
	})
	t.Run("file under another's name", func(t *testing.T) {
		dir, tail := build(t)
		if err := os.Rename(tail[1].Path, journalSegPath(dir, 7)); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverJournalTail(dir); err == nil {
			t.Fatal("a segment whose header disagrees with its name was accepted")
		}
	})
}

// TestSegmentedJournalFollowerRolls: a follower rolls with the primary's
// header bytes — the same roll handed over twice is one roll, a header
// that does not begin where the local journal ends is refused, and one
// that follows a checkpoint replaces the local tail and adopts the
// primary's offset.
func TestSegmentedJournalFollowerRolls(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenSegmentedJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendNoSync(jrec(0, "head")); err != nil {
		t.Fatal(err)
	}
	roll := func(h JournalSegmentHeader, replace bool) error {
		return j.Roll(h, AppendJournalSegmentHeader(nil, h), replace)
	}
	h1 := JournalSegmentHeader{FirstSeq: 1, FirstID: 4, Offset: j.Offset(), Front: 4}
	if err := roll(h1, false); err != nil {
		t.Fatal(err)
	}
	at := j.Offset()
	if err := roll(h1, false); err != nil || j.Offset() != at || len(j.Tail()) != 1 {
		t.Fatalf("the same header twice: %v, offset %d -> %d, %d segments", err, at, j.Offset(), len(j.Tail()))
	}
	if err := j.AppendNoSync(jrec(1, "tail")); err != nil {
		t.Fatal(err)
	}
	if err := roll(JournalSegmentHeader{FirstSeq: 2, FirstID: 5, Offset: j.Offset() + 1, Front: 5}, false); err == nil {
		t.Fatal("a header beginning past the local journal's end was followed")
	}
	far := JournalSegmentHeader{FirstSeq: 40, FirstID: 900, Offset: 1 << 20, Front: 880}
	if err := roll(far, true); err != nil {
		t.Fatal(err)
	}
	tail, err := RecoverJournalTail(dir)
	if err != nil || len(tail) != 1 || tail[0].Header.FirstSeq != 40 {
		t.Fatalf("after the replacing roll: tail %+v, %v", tail, err)
	}
	if want := far.Offset + tail[0].Size; j.Offset() != want || JournalOffset(dir) != want {
		t.Fatalf("offset %d (files: %d), want the primary's %d", j.Offset(), JournalOffset(dir), want)
	}
}

// FuzzJournalSegmentHeader: the header decoder is total. Whatever the
// bytes, it returns a header with no negative position and no front
// beyond the first ID, or an error — never a panic, never an allocation
// the input did not pay for.
func FuzzJournalSegmentHeader(f *testing.F) {
	f.Add(AppendJournalSegmentHeader(nil, JournalSegmentHeader{FirstSeq: 7, FirstID: 4096, Offset: 8 << 20, Front: 4000}))
	f.Add(AppendJournalSegmentHeader(nil, JournalSegmentHeader{FirstSeq: 1}))
	f.Add(AppendJournalSegmentHeader(nil, JournalSegmentHeader{FirstSeq: 3, FirstID: 5, Front: 6})) // a front beyond the first ID
	f.Add(jrec(3, "an event batch, not a header"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, JournalSegmentKind, 0, 0, 0, 1, 0})
	f.Add([]byte{1, JournalSegmentKind, 0, 1, 0, 0xff, 0xff, 0x03}) // a huge shard count over no bytes
	twoShards := []byte{7, JournalSegmentKind, 0, 9, 0, 2, 4, 9}    // what a -shards 2 node wrote
	f.Add(twoShards)
	if _, err := ParseJournalSegmentHeader(twoShards); !errors.Is(err, ErrJournalShards) {
		f.Fatalf("a two-shard header: err %v, want ErrJournalShards", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseJournalSegmentHeader(data)
		if err != nil {
			return
		}
		if h.FirstSeq < 0 || h.FirstID < 0 || h.Offset < 0 || h.Front < 0 || h.Front > h.FirstID {
			t.Fatalf("accepted %+v", h)
		}
		if again, err := ParseJournalSegmentHeader(AppendJournalSegmentHeader(nil, h)); err != nil || again != h {
			t.Fatalf("%+v encodes to something that parses as %+v, %v", h, again, err)
		}
	})
}
