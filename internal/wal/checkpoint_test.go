package wal

import (
	"encoding/binary"
	"os"
	"runtime"
	"testing"

	"grca/internal/event"
	"grca/internal/store"
	"grca/internal/wire"
)

// appendEventRecord appends an event record as the serving pipeline
// journals it: uvarint seq | JournalEventKind | no source | event block.
func appendEventRecord(b []byte, seq int, ins []event.Instance) []byte {
	b = binary.AppendUvarint(b, uint64(seq))
	b = append(b, JournalEventKind, 0)
	return wire.AppendEventBlock(b, ins)
}

// journalCheckpoint journals n events in records of per under a fresh
// data dir's first tail segment, stores them, rolls, and checkpoints over
// the sealed segment: a checkpoint whose run is that segment. It returns
// the dir, the live store and the sealed segment.
func journalCheckpoint(t testing.TB, n, per int) (string, *store.Memory, JournalSegment) {
	t.Helper()
	dir := t.TempDir()
	j, err := OpenSegmentedJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Roll(JournalSegmentHeader{FirstSeq: 1}, nil, false); err != nil {
		t.Fatal(err)
	}
	c, st, _, err := OpenCheckpoint(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := genEvents(47, n)
	seq := 1
	for at := 0; at < n; at += per {
		batch := ins[at:min(at+per, n)]
		if err := j.AppendNoSync(appendEventRecord(nil, seq, batch)); err != nil {
			t.Fatal(err)
		}
		addAll(st, batch)
		seq++
	}
	if err := j.Roll(JournalSegmentHeader{FirstSeq: seq, FirstID: n, Front: n}, nil, false); err != nil {
		t.Fatal(err)
	}
	sealed := j.Tail()[0]
	if err := c.Checkpoint(st, j.Tail()[:1]); err != nil {
		t.Fatal(err)
	}
	return dir, st, sealed
}

// TestCheckpointAdoptsJournalSegment: a sealed journal tail segment whose
// events are all live becomes the checkpoint's run by hard link — nothing
// of it written again — and reads back as that run everywhere a run is
// read: OpenCheckpoint, Open (the vestige's recovery), and a checkpoint
// image written and installed as a follower installs it. The measure of the segment a
// reopened journal takes off the file is what the appender kept. A segment
// that holds a record other than events is no run: its range is written
// from the store.
func TestCheckpointAdoptsJournalSegment(t *testing.T) {
	adopted, written := mSnapRunsAdopted.Value(), mSnapRunsWritten.Value()
	dir, st, seg := journalCheckpoint(t, 3000, 700)
	if got, w := mSnapRunsAdopted.Value()-adopted, mSnapRunsWritten.Value()-written; got != 1 || w != 0 {
		t.Fatalf("%d runs adopted and %d written, want the segment adopted alone", got, w)
	}
	runs := runFiles(t, dir)
	if len(runs) != 1 {
		t.Fatalf("runs %v, want one", runs)
	}
	fs, _ := os.Stat(seg.Path)
	fr, _ := os.Stat(runs[0])
	if !os.SameFile(fs, fr) {
		t.Fatal("the run is not the sealed segment's file")
	}
	want := StoreDigest(st)

	measured := JournalSegment{Path: seg.Path, Header: seg.Header}
	if err := measured.measure(); err != nil || measured != seg {
		t.Fatalf("measured %+v (%v), the appender kept %+v", measured, err, seg)
	}

	_, got, rec, err := OpenCheckpoint(dir, Options{})
	if err != nil || StoreDigest(got) != want || rec.SnapshotLive != 3000 {
		t.Fatalf("OpenCheckpoint: %+v, %v, digest equal %v", rec, err, err == nil && StoreDigest(got) == want)
	}
	img := copyFixture(t, dir)
	l, got, _, err := Open(img, Options{})
	if err != nil || StoreDigest(got) != want {
		t.Fatalf("Open: %v, digest equal %v", err, err == nil && StoreDigest(got) == want)
	}
	l.Close()

	if _, fromImage, err := installImage(t, imageBytes(t, dir), 3000, 1<<16); err != nil || StoreDigest(fromImage) != want {
		t.Fatalf("the image installs (%v) as another store", err)
	}

	// A segment with a header record where an event record belongs.
	dir2 := t.TempDir()
	j, err := OpenSegmentedJournal(dir2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Roll(JournalSegmentHeader{FirstSeq: 1}, nil, false); err != nil {
		t.Fatal(err)
	}
	c, st2, _, err := OpenCheckpoint(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := genEvents(47, 3000)
	if err := j.AppendNoSync(appendEventRecord(nil, 1, batch)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendNoSync(AppendJournalSegmentHeader(nil, JournalSegmentHeader{FirstSeq: 2, FirstID: 3000, Front: 3000})); err != nil {
		t.Fatal(err)
	}
	addAll(st2, batch)
	if err := j.Roll(JournalSegmentHeader{FirstSeq: 3, FirstID: 3000, Front: 3000}, nil, false); err != nil {
		t.Fatal(err)
	}
	if ev := j.Tail()[0].Events; ev != -1 {
		t.Fatalf("a segment with a non-event record counts %d events", ev)
	}
	adopted, written = mSnapRunsAdopted.Value(), mSnapRunsWritten.Value()
	if err := c.Checkpoint(st2, j.Tail()[:1]); err != nil {
		t.Fatal(err)
	}
	if got, w := mSnapRunsAdopted.Value()-adopted, mSnapRunsWritten.Value()-written; got != 0 || w != 1 {
		t.Fatalf("%d runs adopted and %d written, want the range written from the store", got, w)
	}
}

// TestRestoreAllocatesPerFrame: a boot restores its checkpoint a run and
// a frame at a time, so what it allocates is the restored store's own
// heap and one frame's scratch — never the live set decoded whole (128 B
// an event for the instances alone) or a run file read whole — and the
// store it restores is the live one.
func TestRestoreAllocatesPerFrame(t *testing.T) {
	const n = 200000
	dir, live, _ := journalCheckpoint(t, n, 1000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, st, _, err := OpenCheckpoint(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if StoreDigest(st) != StoreDigest(live) {
		t.Fatal("the restored store differs from the live one")
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f B allocated per restored event", per)
	if per > 45 {
		t.Errorf("the restore allocated %.0f B per restored event, want ≤ 45", per)
	}
}

// BenchmarkRestore prices a boot's checkpoint restore: a 200k-event
// checkpoint whose run is an adopted journal segment, restored into a
// fresh store; B/event is what the restore allocates per restored event.
func BenchmarkRestore(b *testing.B) {
	const n = 200000
	dir, _, _ := journalCheckpoint(b, n, 1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := OpenCheckpoint(dir, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/n, "B/event")
}
