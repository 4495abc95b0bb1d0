package wal

import (
	"bytes"
	"encoding/binary"
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
