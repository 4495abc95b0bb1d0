package wal

import (
	"os"
	"strings"
	"testing"
)

// TestParallelReplayDeterminism: recovery with 1, 2, and 8 decode
// workers must produce byte-identical stores and identical recovery
// reports, over a log that mixes a snapshot with a multi-segment tail.
func TestParallelReplayDeterminism(t *testing.T) {
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
	want := StoreDigest(st)
	var rec0 Recovery
	for i, workers := range []int{1, 2, 8} {
		l2, st2, rec, err := Open(dir, Options{ReplayWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := StoreDigest(st2); got != want {
			t.Fatalf("workers=%d: recovered digest differs from the original", workers)
		}
		if i == 0 {
			rec0 = rec
		} else if rec != rec0 {
			t.Fatalf("workers=%d: recovery report %+v differs from single-worker %+v", workers, rec, rec0)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelReplayCorruptRecordDeterministicError: corrupted block
// bodies (intact frames and ID headers, gibberish events) must produce the
// same fatal error for every worker count — the first one's.
func TestParallelReplayCorruptRecordDeterministicError(t *testing.T) {
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
	var msgs []string
	for _, workers := range []int{1, 8} {
		_, _, _, err := Open(dir, Options{ReplayWorkers: workers})
		if err == nil {
			t.Fatalf("workers=%d: corrupt record recovered without error", workers)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] || !strings.Contains(msgs[0], "record 20:") {
		t.Fatalf("error differs by worker count or is not the first bad group's:\n1: %s\n8: %s", msgs[0], msgs[1])
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
