package chaos

import (
	"fmt"
	"os"
	"sort"

	"grca/internal/event"
	"grca/internal/store"
	"grca/internal/wal"
)

// CrashResult reports one crash-restart replay.
type CrashResult struct {
	// Store is the WAL-recovered store after the final restart; diagnoses
	// are scored against it.
	Store store.Store
	// Crashes is how many kill -9 restarts were simulated.
	Crashes int
	// Redelivered counts events that were lost with an abandoned commit
	// buffer and delivered again by the next session.
	Redelivered int
	// DigestMatch reports whether the recovered store is byte-identical
	// to the unperturbed one — the WAL's whole contract.
	DigestMatch bool
}

// liveInstances copies every live instance of st, in ID order: the
// delivery schedule of the crash and replica replays.
func liveInstances(st store.Store) []event.Instance {
	var ins []event.Instance
	st.SnapshotTo(func(_, _, live int) error { //nolint:errcheck // neither callback fails
		ins = make([]event.Instance, 0, live)
		return nil
	}, func(in *event.Instance) error {
		ins = append(ins, *in)
		return nil
	})
	return ins
}

// CrashReplay simulates a serve process being killed and restarted
// mid-ingest: the clean corpus is delivered in store order to a WAL-backed
// store, committing every CrashBatch events. At each deterministic crash
// point the log is abandoned without a commit or close — records buffered
// since the last acknowledged commit existed only in memory and are lost,
// exactly as under kill -9 — and the next session recovers from disk and
// re-delivers what the recovered store is missing. After the final clean
// shutdown the store is recovered once more and compared byte-for-byte
// against the original.
func (inj *Injector) CrashReplay(clean store.Store) (CrashResult, error) {
	dir, err := os.MkdirTemp("", "grca-chaos-crash-")
	if err != nil {
		return CrashResult{}, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup

	ins := liveInstances(clean)
	n := len(ins)
	opts := wal.Options{SnapshotEvery: 4 * inj.cfg.CrashBatch}

	// Crash points: distinct positions in (0, n), drawn from the seed so
	// the same matrix run crashes at the same events.
	rng := inj.rng("crash")
	pts := map[int]bool{}
	for len(pts) < inj.cfg.CrashCount && len(pts) < n-1 {
		pts[1+rng.Intn(n-1)] = true
	}
	cuts := make([]int, 0, len(pts))
	for p := range pts {
		cuts = append(cuts, p)
	}
	sort.Ints(cuts)

	open := func() (*wal.Log, *store.Memory, error) {
		l, st, _, err := wal.Open(dir, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("chaos: crash recovery: %v", err)
		}
		return l, st, nil
	}

	res := CrashResult{}
	prevCut := 0
	// Each session re-delivers exactly the events missing from the
	// recovered store, with their original IDs.
	deliver := func(cut int, crash bool) error {
		l, st, err := open()
		if err != nil {
			return err
		}
		delivered := 0
		for i := 0; i < cut; i++ {
			if _, ok := st.Get(ins[i].ID); ok {
				continue
			}
			if i < prevCut {
				res.Redelivered++
			}
			if _, err := st.Put(ins[i]); err != nil {
				return err
			}
			if delivered++; delivered%inj.cfg.CrashBatch == 0 {
				if err := l.Commit(); err != nil {
					return err
				}
			}
		}
		if crash {
			// kill -9: walk away from the log.
			res.Crashes++
			prevCut = cut
			return nil
		}
		if err := l.Commit(); err != nil {
			return err
		}
		return l.Close()
	}
	for _, cut := range cuts {
		if err := deliver(cut, true); err != nil {
			return res, err
		}
	}
	if err := deliver(n, false); err != nil {
		return res, err
	}

	l, st, err := open()
	if err != nil {
		return res, err
	}
	if err := l.Close(); err != nil {
		return res, err
	}
	res.Store = st
	res.DigestMatch = wal.StoreDigest(st) == wal.StoreDigest(clean)
	return res, nil
}
