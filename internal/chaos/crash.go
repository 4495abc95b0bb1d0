package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"grca/internal/platform"
	"grca/internal/server"
	"grca/internal/store"
	"grca/internal/wal"
)

// activeSegment returns the path and size of the journal file taking the
// appends under dir.
func activeSegment(dir string) (string, int64, error) {
	tail, err := wal.JournalTail(dir)
	if err != nil || len(tail) == 0 {
		return "", 0, fmt.Errorf("chaos: %s has no journal tail segment (%v)", dir, err)
	}
	fi, err := os.Stat(tail[len(tail)-1].Path)
	if err != nil {
		return "", 0, err
	}
	return tail[len(tail)-1].Path, fi.Size(), nil
}

// CrashReplay kills the diagnosis service mid-ingest and restarts it. A
// server (server.Open, checkpointing every 4×crashBatch events, so rolls,
// linked runs, manifests and segment drops all run) is finalized and fed
// the clean corpus in ID order as wire batches of crashBatch events. At
// crashCount seeded batches the data dir's image is taken — alternately
// between two acknowledged batches, and with the batch just acknowledged
// torn at a seeded byte inside its frame, the kill landing mid-write. Each
// image boots with server.Open, its client posts again every batch it never
// saw acknowledged, and the node must answer as the node that never
// crashed: the same store digest, the clean store's (DigestMatch), and the
// same /v1/breakdown bytes for every application (BreakdownMatch). It
// returns the scenario block and the last rebooted node's store.
func (inj *Injector) CrashReplay(b platform.Bundle, clean store.Store) (Scenario, store.Store, error) {
	scen := Scenario{Fault: string(FaultCrashRestart)}
	root, err := os.MkdirTemp("", "grca-chaos-crash-")
	if err != nil {
		return scen, nil, err
	}
	defer os.RemoveAll(root) //nolint:errcheck // best-effort temp cleanup

	batches := wireBatches(clean, crashBatch)
	n := len(batches)
	cfg := server.Config{DataDir: filepath.Join(root, "live"), Bundle: b, SnapshotEvery: 4 * crashBatch}

	// Cuts: distinct batches in [0, n-1), drawn from the seed so the same
	// matrix run crashes at the same places; every other one mid-frame.
	rng := inj.rng("crash")
	pts := map[int]bool{}
	for len(pts) < crashCount && len(pts) < n-1 {
		pts[rng.Intn(n-1)] = true
	}
	var cuts []int
	for p := range pts {
		cuts = append(cuts, p)
	}
	sort.Ints(cuts)
	var images []string
	var inflight []int // per image, the first batch its client saw no answer to

	live, err := openNode(cfg)
	if err != nil {
		return scen, nil, err
	}
	defer live.close() //nolint:errcheck // closed below; this covers the error paths
	if err := live.finalize(); err != nil {
		return scen, nil, err
	}
	segPath, segSize, err := activeSegment(cfg.DataDir)
	if err != nil {
		return scen, nil, err
	}
	err = live.post(batches, func(k int) error {
		path, size, err := activeSegment(cfg.DataDir)
		if err != nil {
			return err
		}
		rolled, frame := path != segPath, segSize // the batch's frame begins at frame
		segPath, segSize = path, size
		for len(images) < len(cuts) && cuts[len(images)] <= k {
			if rolled && k+1 < n {
				// This batch rolled the journal, and the segment drops behind
				// its checkpoint may still be running: cut behind the next.
				return nil
			}
			dir := filepath.Join(root, fmt.Sprintf("image-%d", len(images)))
			if err := copyDir(cfg.DataDir, dir); err != nil {
				return err
			}
			if len(images)%2 == 1 { // mid-frame
				torn := frame + 1 + rng.Int63n(size-frame-1)
				if err := os.Truncate(filepath.Join(dir, filepath.Base(path)), torn); err != nil {
					return err
				}
				scen.MidFrame++
				inflight = append(inflight, k)
			} else {
				scen.BetweenBatches++
				inflight = append(inflight, k+1)
			}
			images = append(images, dir)
		}
		return nil
	})
	if err != nil {
		return scen, nil, err
	}
	want, err := live.state()
	if err = errors.Join(err, live.close()); err != nil {
		return scen, nil, err
	}

	scen.DigestMatch, scen.BreakdownMatch = want.digest == wal.StoreDigest(clean), true
	var st store.Store
	for i, dir := range images {
		// A run a checkpoint adopted is a journal tail segment; a written one
		// begins with the block magic, not a segment header.
		runs, _ := filepath.Glob(filepath.Join(wal.SnapDirOf(dir), "run-*.run")) // fails only on a malformed pattern
		for _, r := range runs {
			if _, ok, _ := wal.ReadJournalSegmentHeader(r); ok {
				scen.LinkedCheckpoints++
				break
			}
		}
		rebooted, err := openNode(server.Config{DataDir: dir, Bundle: cfg.Bundle, SnapshotEvery: cfg.SnapshotEvery})
		if err != nil {
			return scen, nil, fmt.Errorf("chaos: crash recovery: %v", err)
		}
		scen.Crashes++
		redo := batches[inflight[i]:]
		if len(redo) > 0 {
			scen.Redelivered += redo[0].events
		}
		err = rebooted.post(redo, nil)
		var got nodeState
		if err == nil {
			got, err = rebooted.state()
		}
		if err = errors.Join(err, rebooted.close()); err != nil {
			return scen, nil, err
		}
		scen.DigestMatch = scen.DigestMatch && got.digest == want.digest
		scen.BreakdownMatch = scen.BreakdownMatch && got.breakdown == want.breakdown
		st = rebooted.srv.Store()
	}
	return scen, st, nil
}
