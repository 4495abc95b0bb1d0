package chaos

import (
	"reflect"
	"testing"
	"time"

	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/store"
	"grca/internal/wal"
)

// durabilityCorpus is a small dataset for the durability classes: the
// bundle the server is opened over, and the clean store whose events it
// is fed.
func durabilityCorpus(t *testing.T) (platform.Bundle, store.Store) {
	t.Helper()
	d, err := simnet.Generate(simnet.Config{
		Seed: 5, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 6,
		Duration: 3 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := platform.BundleFromDataset(d)
	sys, err := b.Assemble(platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b, sys.Store
}

// TestCrashReplayByteIdentical is the fault class's core property: kill -9
// images of the serving node, cut between acknowledged batches and inside
// the frame of the batch in flight, each boot to a node that answers as
// the one that never crashed. The seed's matrix reaches the code it gates:
// both kinds of cut, and a boot from a checkpoint that adopted a journal
// segment as a run.
func TestCrashReplayByteIdentical(t *testing.T) {
	b, clean := durabilityCorpus(t)
	cfg := Config{Seed: 11, Faults: []Fault{FaultCrashRestart}, CrashCount: 4, CrashBatch: 64}
	res, st, err := New(cfg).CrashReplay(b, clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 4 {
		t.Errorf("crashes = %d, want 4", res.Crashes)
	}
	if !res.DigestMatch {
		t.Fatal("a rebooted node's store is not byte-identical to the clean one")
	}
	if !res.BreakdownMatch {
		t.Fatal("a rebooted node's /v1/breakdown differs from the uncrashed node's")
	}
	if st.Len() != clean.Len() || wal.StoreDigest(st) != wal.StoreDigest(clean) {
		t.Fatalf("recovered %d events, want %d, byte-identical", st.Len(), clean.Len())
	}
	if res.BetweenBatches == 0 || res.MidFrame == 0 {
		t.Errorf("cuts: %d between batches, %d mid-frame; want both kinds", res.BetweenBatches, res.MidFrame)
	}
	if res.LinkedCheckpoints == 0 {
		t.Error("no image booted from a checkpoint holding a linked journal segment")
	}
	if res.Redelivered == 0 {
		t.Error("no crash left a batch in flight")
	}

	// Same seed, same cuts, same loss.
	res2, _, err := New(cfg).CrashReplay(b, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("same seed diverged: %+v vs %+v", res, res2)
	}
}
