package store

import (
	"fmt"
	"hash/fnv"
	"testing"

	"grca/internal/locus"
)

// TestShardForIsFNVOfKey pins placement to FNV-1a(loc.Key()) mod n: the
// allocation-free hash over the key's parts must agree with hash/fnv
// over the built string for every type, arity and shard count — a data
// dir's shard WALs are only valid under the function that placed them.
func TestShardForIsFNVOfKey(t *testing.T) {
	var locs []locus.Location
	for typ := locus.None; typ <= locus.ServerClient+1; typ++ { // one past the last: an unnamed type
		for i := 0; i < 20; i++ {
			loc := locus.Location{Type: typ, A: fmt.Sprintf("pop%02d-per%d", i, i%3)}
			if i%2 == 1 {
				loc.B = fmt.Sprintf("10.%d.0.1|x", i)
			}
			locs = append(locs, loc)
		}
	}
	locs = append(locs, locus.Location{})
	spread := map[int]bool{}
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		s := NewSharded(n)
		for _, loc := range locs {
			h := fnv.New32a()
			h.Write([]byte(loc.Key()))
			want := int(h.Sum32() % uint32(n))
			if got := s.ShardFor(loc); got != want {
				t.Fatalf("ShardFor(%q) over %d shards = %d, want %d", loc.Key(), n, got, want)
			}
			if n == 4 {
				spread[want] = true
			}
		}
	}
	if len(locs) < 300 || len(spread) != 4 {
		t.Fatalf("%d locations reached %d of 4 shards", len(locs), len(spread))
	}
	s4 := NewSharded(4)
	if avg := testing.AllocsPerRun(100, func() { s4.ShardFor(locs[21]) }); avg != 0 {
		t.Errorf("ShardFor allocates %.1f times per call", avg)
	}
}
