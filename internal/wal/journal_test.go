package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// TestReadJournalSegmentHeaderCuts: the header is read off the file
// without a stream reader, with what the FrameReader oracle returns for
// the same bytes: every cut of a header frame, a cut record behind it,
// a flipped byte, a length beyond the file or beyond any record, an
// event record where the header belongs, and garbage.
func TestReadJournalSegmentHeaderCuts(t *testing.T) {
	oracle := func(path string) (h JournalSegmentHeader, ok bool, err error) {
		f, err := os.Open(path)
		if err != nil {
			return h, false, err
		}
		defer f.Close()
		payload, err := NewFrameReader(f).Next()
		if err == io.EOF || err == ErrTornFrame {
			return h, false, nil
		}
		if err != nil {
			return h, false, err
		}
		h, err = ParseJournalSegmentHeader(payload)
		return h, err == nil, err
	}
	hdr := appendFrame(nil, AppendJournalSegmentHeader(nil, JournalSegmentHeader{FirstSeq: 7, FirstID: 4096, Offset: 8 << 20, Front: 4000}))
	whole := appendFrame(slices.Clone(hdr), jrec(7, "a record behind the header"))
	files := map[string][]byte{
		"whole":         whole,
		"event record":  appendFrame(nil, jrec(3, "an event batch, not a header")),
		"garbage":       []byte("not a journal segment at all, just text"),
		"huge length":   append([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, hdr[frameHeader:]...),
		"length beyond": append(binary.LittleEndian.AppendUint32(nil, 1<<20), hdr[4:]...),
	}
	for cut := 0; cut < len(whole); cut++ {
		files[fmt.Sprintf("cut %d", cut)] = whole[:cut]
	}
	for i := range hdr {
		flipped := slices.Clone(whole)
		flipped[i] ^= 0x40
		files[fmt.Sprintf("flip %d", i)] = flipped
	}
	dir := t.TempDir()
	for name, b := range files {
		path := filepath.Join(dir, "journal-0000000000000007.log")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		h, ok, err := ReadJournalSegmentHeader(path)
		wh, wok, werr := oracle(path)
		if h != wh || ok != wok || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%s: got %+v, %v, %v; the oracle %+v, %v, %v", name, h, ok, err, wh, wok, werr)
		}
		if name == "whole" && (!ok || err != nil || h.FirstID != 4096) {
			t.Errorf("the whole frame read as %+v, %v, %v", h, ok, err)
		}
	}
	if _, _, err := ReadJournalSegmentHeader(filepath.Join(dir, "missing.log")); !os.IsNotExist(err) {
		t.Fatalf("a missing file: %v", err)
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

// journalTail3 journals a head record and three tail segments under dir,
// each segment three event records of one to three events, rolling at the
// headers where the journal stands unless bend changes them first. It
// returns the appender's bookkeeping of the tail as it closed, and the
// tail's records in journal order.
func journalTail3(t testing.TB, dir string, bend func(k int, h *JournalSegmentHeader)) ([]JournalSegment, [][]byte) {
	t.Helper()
	j, err := OpenSegmentedJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendNoSync(jrec(0, "head")); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	seq, id := 1, 0
	for k := 0; k < 3; k++ {
		h := JournalSegmentHeader{FirstSeq: seq, FirstID: id, Front: id}
		if bend != nil {
			bend(k, &h)
		}
		if err := j.Roll(h, nil, false); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			n := 1 + seq%3
			rec := appendEventRecord(nil, seq, genEvents(int64(seq), n))
			if err := j.AppendNoSync(rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
			seq, id = seq+1, id+n
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	return slices.Clone(j.Tail()), recs
}

// replayTail recovers and replays dir's tail, returning the listing as
// the replay left it, each record replayed and the segment it came from.
func replayTail(t testing.TB, dir string) (tail []JournalSegment, recs [][]byte, from []int, err error) {
	t.Helper()
	if tail, err = RecoverJournalTail(dir); err != nil {
		return tail, nil, nil, err
	}
	k := -1
	err = ReplayJournalTail(tail, func(next int) error {
		if next != k+1 {
			t.Fatalf("segment %d begun after segment %d", next, k)
		}
		k = next
		return nil
	}, func(p []byte) error {
		recs, from = append(recs, slices.Clone(p)), append(from, k)
		return nil
	})
	return tail, recs, from, err
}

// TestReplayJournalTail: one read of each segment replays its records,
// cuts a torn last segment and measures every segment as the appender
// kept it and as the file says; damage in a sealed segment, and a
// successor that does not begin where its predecessor ended, are refused
// by name.
func TestReplayJournalTail(t *testing.T) {
	// segment 1's second record, from its second byte on
	sealedRecord := func(tail []JournalSegment, recs [][]byte) int64 {
		return int64(2*frameHeader + len(AppendJournalSegmentHeader(nil, tail[1].Header)) + len(recs[3]))
	}
	for _, tc := range []struct {
		name    string
		bend    func(k int, h *JournalSegmentHeader)
		damage  func(t *testing.T, tail []JournalSegment, recs [][]byte)
		records int // replayed before the refusal, if any
		refusal func(tail []JournalSegment, recs [][]byte) string
	}{
		{name: "clean", records: 9},
		{name: "torn last segment", records: 9,
			damage: func(t *testing.T, tail []JournalSegment, recs [][]byte) {
				f, err := os.OpenFile(tail[2].Path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write(appendFrame(nil, recs[0])[:frameHeader+3]); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "garbage in a sealed segment", records: 4,
			damage: func(t *testing.T, tail []JournalSegment, recs [][]byte) {
				data, err := os.ReadFile(tail[1].Path)
				if err != nil {
					t.Fatal(err)
				}
				data[sealedRecord(tail, recs)+frameHeader+1] ^= 0x20
				if err := os.WriteFile(tail[1].Path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			refusal: func(tail []JournalSegment, recs [][]byte) string {
				return fmt.Sprintf("server: %s is damaged at byte %d", tail[1].Path, sealedRecord(tail, recs))
			}},
		{name: "successor's first ID past the predecessor's events", records: 6,
			bend: func(k int, h *JournalSegmentHeader) {
				if k == 2 {
					h.FirstID++
				}
			},
			refusal: func(tail []JournalSegment, _ [][]byte) string {
				h := tail[2].Header
				return fmt.Sprintf("server: %s begins at sequence %d and event ID %d, the replay stands at %d and %d",
					tail[2].Path, h.FirstSeq, h.FirstID, h.FirstSeq, h.FirstID-1)
			}},
		{name: "successor's first sequence skips one", records: 6,
			bend: func(k int, h *JournalSegmentHeader) {
				if k == 2 {
					h.FirstSeq++
				}
			},
			refusal: func(tail []JournalSegment, _ [][]byte) string {
				h := tail[2].Header
				return fmt.Sprintf("server: %s begins at sequence %d and event ID %d, the replay stands at %d and %d",
					tail[2].Path, h.FirstSeq, h.FirstID, h.FirstSeq-1, h.FirstID)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			kept, recs := journalTail3(t, dir, tc.bend)
			if tc.damage != nil {
				tc.damage(t, kept, recs)
			}
			tail, got, from, err := replayTail(t, dir)
			if len(got) != tc.records {
				t.Fatalf("replayed %d records, want %d", len(got), tc.records)
			}
			for i := range got {
				if !bytes.Equal(got[i], recs[i]) || from[i] != i/3 {
					t.Fatalf("record %d, from segment %d, is not the one journaled there", i, from[i])
				}
			}
			if tc.refusal != nil {
				if want := tc.refusal(kept, recs); err == nil || err.Error() != want {
					t.Fatalf("err %v, want %q", err, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for k, s := range tail {
				oracle := JournalSegment{Path: s.Path, Header: s.Header}
				if err := oracle.measure(); err != nil {
					t.Fatal(err)
				}
				if s != oracle || s != kept[k] {
					t.Fatalf("segment %d replayed as %+v, measured %+v, kept by the appender as %+v", k, s, oracle, kept[k])
				}
			}
			j, err := OpenSegmentedJournal(dir, tail)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if want := kept[2].Header.Offset + kept[2].Size; j.Offset() != want {
				t.Fatalf("reopened at journal byte %d, the appender closed at %d", j.Offset(), want)
			}
		})
	}
}

// FuzzReplayJournalTail cuts, overwrites or extends the bytes of one file
// of a three-segment tail. Whatever the bytes, recovery and the replay
// never panic; they refuse, or replay every record the change left
// untouched, as journaled, and measure each segment as the file now is,
// with the events its records hold. Past its header, nothing done to the
// last segment is refused: that is a crash's tail, and it is cut.
func FuzzReplayJournalTail(f *testing.F) {
	tmpl := f.TempDir()
	kept, recs := journalTail3(f, tmpl, nil)
	head, err := os.ReadFile(JournalHead(tmpl))
	if err != nil {
		f.Fatal(err)
	}
	var files [3][]byte
	for k, s := range kept {
		if files[k], err = os.ReadFile(s.Path); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(uint8(2), uint32(len(files[2])-5), true, []byte{})              // torn last record
	f.Add(uint8(2), uint32(len(files[2])), false, []byte("a torn frame")) // extended
	f.Add(uint8(2), uint32(30), false, []byte{0xff})                      // a record overwritten
	f.Add(uint8(1), uint32(40), false, []byte{0xff})                      // the same, sealed
	f.Add(uint8(0), uint32(10), true, []byte{})                           // a sealed segment cut
	f.Add(uint8(2), uint32(3), true, []byte{})                            // a header cut
	f.Fuzz(func(t *testing.T, seg uint8, at uint32, cut bool, patch []byte) {
		dir := t.TempDir()
		k := int(seg % 3)
		keep := int(at % uint32(len(files[k])+1))
		changed := append([]byte(nil), files[k][:keep]...)
		changed = append(changed, patch...)
		if !cut && keep+len(patch) < len(files[k]) {
			changed = append(changed, files[k][keep+len(patch):]...)
		}
		if err := os.WriteFile(JournalHead(dir), head, 0o644); err != nil {
			t.Fatal(err)
		}
		for i, s := range kept {
			data := files[i]
			if i == k {
				data = changed
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(s.Path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The records that lie whole before the first byte changed.
		untouched, end := 3*k, frameHeader+len(AppendJournalSegmentHeader(nil, kept[k].Header))
		headerWhole := keep >= end
		for _, r := range recs[3*k : 3*k+3] {
			if end += frameHeader + len(r); end > keep {
				break
			}
			untouched++
		}

		tail, got, from, err := replayTail(t, dir)
		if err != nil {
			if k == 2 && headerWhole {
				t.Fatalf("the last segment changed past its header (byte %d) was refused: %v", keep, err)
			}
			return
		}
		if len(got) < untouched {
			t.Fatalf("replayed %d records, %d were untouched", len(got), untouched)
		}
		for i := range got {
			if (i < untouched || cut && len(patch) == 0) && (i >= len(recs) || !bytes.Equal(got[i], recs[i])) {
				t.Fatalf("record %d is not the one journaled there", i)
			}
		}
		events := make([]int, len(tail))
		for i, p := range got {
			n, _, err := journalEvents(p)
			if err != nil || events[from[i]] < 0 {
				events[from[i]] = -1
				continue
			}
			events[from[i]] += n
		}
		for i, s := range tail {
			oracle := JournalSegment{Path: s.Path, Header: s.Header}
			if err := oracle.measure(); err != nil {
				t.Fatal(err)
			}
			if s != oracle || s.Events != events[i] {
				t.Fatalf("segment %d replayed as %+v, measured %+v, its records hold %d events", i, s, oracle, events[i])
			}
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
	if want := far.Offset + tail[0].Size; j.Offset() != want {
		t.Fatalf("offset %d, want the primary's %d", j.Offset(), want)
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
	if _, err := ParseJournalSegmentHeader(twoShards); err == nil || err.Error() != "wal: bad journal segment header" {
		f.Fatalf("a two-shard header: err %v, want a bad header", err)
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

// FuzzJournalRecord: the record codec is total and exact. Whatever the
// bytes, ParseJournalRecord returns an error or a record that re-encodes
// to those very bytes — a uvarint not in its shortest form is an error —
// and so do the segment header and event record readers built on it.
func FuzzJournalRecord(f *testing.F) {
	f.Add(AppendJournalRecord(nil, JournalRecord{Seq: 7, Kind: JournalFeedKind, Source: "syslog", Body: []byte{3, 0, 1}}))
	f.Add(AppendJournalRecord(nil, JournalRecord{Seq: 1 << 40, Kind: JournalFinalizeKind}))
	f.Add(appendEventRecord(nil, 3, genEvents(5, 4)))
	f.Add(AppendJournalSegmentHeader(nil, JournalSegmentHeader{FirstSeq: 7, FirstID: 4096, Offset: 8 << 20, Front: 4000}))
	f.Add(jrec(3, "a body"))
	f.Add([]byte{0x80, 0x00, JournalEventKind, 0})         // a sequence not in its shortest form
	f.Add([]byte{1, JournalFeedKind, 0x85, 0, 's'})        // a source length likewise
	f.Add([]byte{1, JournalFeedKind, 0x7f, 's', 'y', 's'}) // a source longer than the record
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseJournalRecord(data)
		if err != nil {
			return
		}
		if r.Seq < 0 || r.Seq > maxID {
			t.Fatalf("accepted sequence %d", r.Seq)
		}
		if again := AppendJournalRecord(nil, r); !bytes.Equal(again, data) {
			t.Fatalf("%+v re-encodes to %x, parsed from %x", r, again, data)
		}
		if h, err := ParseJournalSegmentHeader(data); err == nil {
			if again := AppendJournalSegmentHeader(nil, h); !bytes.Equal(again, data) {
				t.Fatalf("header %+v re-encodes to %x, parsed from %x", h, again, data)
			}
		}
		if n, block, err := journalEvents(data); err == nil && (n < 1 || !bytes.Equal(block, r.Body)) {
			t.Fatalf("event record of %d events, block %x, body %x", n, block, r.Body)
		}
	})
}
