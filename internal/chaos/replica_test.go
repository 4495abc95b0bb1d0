package chaos

import (
	"testing"

	"grca/internal/wal"
)

// TestReplicaReplayConverges: a follower whose journal stream stalls, or is
// severed again and again, heals to the primary's store and breakdown
// bytes. The seed's matrix reaches what it gates: the stalled follower
// served a strict prefix, and a partition cut landed mid-frame.
func TestReplicaReplayConverges(t *testing.T) {
	b, clean := durabilityCorpus(t)
	for _, f := range []Fault{FaultReplicaLag, FaultPartition} {
		t.Run(string(f), func(t *testing.T) {
			res, st, err := New(Config{Seed: 11, Faults: []Fault{f}, CrashBatch: 64}).ReplicaReplay(b, clean, f)
			if err != nil {
				t.Fatal(err)
			}
			if !res.DigestMatch || !res.BreakdownMatch {
				t.Fatalf("healed follower diverged: digest %v, breakdown %v", res.DigestMatch, res.BreakdownMatch)
			}
			if wal.StoreDigest(st) != wal.StoreDigest(clean) {
				t.Fatal("healed follower's store is not the clean store")
			}
			if res.Total != clean.Len() {
				t.Errorf("primary holds %d events, want %d", res.Total, clean.Len())
			}
			switch f {
			case FaultReplicaLag:
				if res.StaleFrontier <= 0 || res.StaleFrontier >= res.Total {
					t.Errorf("stalled at frontier %d of %d: no stale prefix served", res.StaleFrontier, res.Total)
				}
			case FaultPartition:
				if res.Reconnects != 3 {
					t.Errorf("reconnects = %d, want the default 3 cuts", res.Reconnects)
				}
				if res.Torn == 0 {
					t.Error("no partition cut landed mid-frame")
				}
			}
		})
	}
	if _, _, err := New(Config{}).ReplicaReplay(b, clean, FaultSkew); err == nil {
		t.Error("a non-replication fault was accepted")
	}
}
