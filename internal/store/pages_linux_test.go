package store

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// TestMappingsBoundedUnderRetention: a million Adds under retention map
// and unmap chunks and columns by the hundred, yet add at most 64 lines to
// /proc/self/maps — the kernel reuses the holes eviction leaves and
// merges neighbouring mappings, so the store never nears the per-process
// mapping limit.
func TestMappingsBoundedUnderRetention(t *testing.T) {
	lines := func() int {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps: %v", err)
		}
		return bytes.Count(b, []byte{'\n'})
	}
	runtime.GC()
	before := lines()
	s := New()
	s.SetRetention(time.Hour)
	loc := locus.At(locus.Router, "r")
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 1e6; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		s.Add(event.Instance{Name: names[i%len(names)], Start: at, End: at, Loc: loc})
	}
	grown := lines() - before
	if grown > 64 {
		t.Fatalf("/proc/self/maps grew by %d lines over 1e6 Adds under retention, want ≤ 64", grown)
	}
	t.Logf("/proc/self/maps grew by %d lines", grown)
	if s.Len() > 2*3600 {
		t.Fatalf("retention kept %d events", s.Len())
	}
}
