package wal

import (
	"os"
	"strings"
	"testing"
)

// TestReplayDeterminism: recovery over a log that mixes a snapshot with a
// multi-segment tail restores a byte-identical store, and every recovery
// of it reports the same.
func TestReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(41, 1200)
	l, st, _, err := Open(dir, Options{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	addAll(st, ins[:700])
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	addAll(st, ins[700:])
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _, err := listNumbered(walDir(dir), "seg-", ".log"); err != nil || len(segs) < 2 {
		t.Fatalf("the tail is %d segments (%v), want several", len(segs), err)
	}
	want := StoreDigest(st)
	var rec0 Recovery
	for i := range 2 {
		l2, st2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
		if got := StoreDigest(st2); got != want {
			t.Fatalf("recovery %d: recovered digest differs from the original", i)
		}
		if rec.SnapshotNext != 700 || rec.Replayed != 500 {
			t.Fatalf("recovery %d: %+v, want the snapshot's 700 and 500 replayed", i, rec)
		}
		if i == 0 {
			rec0 = rec
		} else if rec != rec0 {
			t.Fatalf("recovery %d: report %+v differs from the first's %+v", i, rec, rec0)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayCorruptRecordError: corrupted block bodies (intact frames and
// ID headers, gibberish events) make recovery fail, naming the first bad
// group.
func TestReplayCorruptRecordError(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(43, 80)
	l, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ins); i += 10 {
		addAll(st, ins[i:i+10])
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listNumbered(walDir(dir), "seg-", ".log")
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	// Overwrite the blocks of the third and the sixth group with 0xff and
	// fix up their CRCs, so the framing stays valid.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var patched []byte
	for frame, rest := 0, data; len(rest) > 0; frame++ {
		payload, r2, ok := readFrame(rest)
		if !ok {
			t.Fatal("the segment does not frame")
		}
		if frame == 3 || frame == 6 {
			_, block, err := blockSpan(payload)
			if err != nil {
				t.Fatal(err)
			}
			payload = append([]byte(nil), payload...)
			for i := len(payload) - len(block); i < len(payload); i++ {
				payload[i] = 0xff
			}
		}
		patched, rest = appendFrame(patched, payload), r2
	}
	if err := os.WriteFile(segs[0], patched, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("corrupt record recovered without error")
	}
	if !strings.Contains(err.Error(), "record 20:") {
		t.Fatalf("the error is not the first bad group's: %v", err)
	}
}

// BenchmarkOpenReplay measures recovery (the restart path) over a
// 20k-record segment tail; the serve-level figure is restart_s in
// `go run ./bench`.
func BenchmarkOpenReplay(b *testing.B) {
	dir := b.TempDir()
	ins := genEvents(51, 20000)
	l, st, _, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	addAll(st, ins)
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, st2, _, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st2.Len() != len(ins) {
			b.Fatalf("recovered %d, want %d", st2.Len(), len(ins))
		}
		l2.Close()
	}
}
