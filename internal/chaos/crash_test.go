package chaos

import (
	"fmt"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/store"
	"grca/internal/wal"
)

func crashCorpus(n int) store.Store {
	st := store.New()
	base := time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		in := event.Instance{
			Name: event.InterfaceDown, Start: at, End: at,
			Loc: locus.At(locus.Interface, fmt.Sprintf("r%02d", i%17)),
		}
		if i%3 == 0 {
			in.Name = event.InterfaceUp
			in.Attrs = event.NewAttrs(map[string]string{"n": fmt.Sprint(i)})
		}
		st.Add(in)
	}
	return st
}

// TestCrashReplayByteIdentical is the fault class's core property: any
// number of kill -9 restarts mid-ingest still converges on a store
// byte-identical to never having crashed.
func TestCrashReplayByteIdentical(t *testing.T) {
	clean := crashCorpus(2000)
	inj := New(Config{Seed: 11, Faults: []Fault{FaultCrashRestart}, CrashCount: 4, CrashBatch: 64})
	res, err := inj.CrashReplay(clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 4 {
		t.Errorf("crashes = %d, want 4", res.Crashes)
	}
	if !res.DigestMatch {
		t.Fatal("recovered store is not byte-identical to the clean one")
	}
	if res.Store.Len() != clean.Len() {
		t.Fatalf("recovered %d events, want %d", res.Store.Len(), clean.Len())
	}
	if wal.StoreDigest(res.Store) != wal.StoreDigest(clean) {
		t.Fatal("digest mismatch despite DigestMatch")
	}

	// Same seed, same crashes, same loss.
	res2, err := New(Config{Seed: 11, Faults: []Fault{FaultCrashRestart}, CrashCount: 4, CrashBatch: 64}).CrashReplay(clean)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Crashes != res.Crashes || res2.Redelivered != res.Redelivered {
		t.Errorf("same seed diverged: %+v vs %+v", res, res2)
	}
}
