package server

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"time"

	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/netmodel"
	"grca/internal/obs"
	"grca/internal/store"
	"grca/internal/wal"
)

// Recovery is newest readable checkpoint + journal tail (DESIGN.md §11,
// §15). Each shard's checkpoint is its event WAL as wal.Open recovers it
// (a follower's: the state its sink was shipped); the journal is replayed
// over the checkpoints through a per-shard frontier — an event the
// checkpoint already holds is verified against it and skipped, one it
// lacks is added — so the store the node serves is the checkpoints plus
// exactly what the journal holds beyond them.

var (
	// ErrCheckpointLost refuses a data dir whose journal no longer reaches
	// back to what a shard's checkpoint lacks: the tail segments that held
	// the shard's events were dropped behind snapshots that are gone (a
	// deleted or unreadable snap/ and wal/). Serving would mean serving a
	// store with a hole.
	ErrCheckpointLost = errors.New("server: a shard's checkpoint ends below the retained journal tail")
	// ErrCheckpointDiverged refuses a data dir where a shard's checkpoint
	// and the journal disagree about an event both hold, and the journal no
	// longer reaches back to ID 0 to refill the shard from.
	ErrCheckpointDiverged = errors.New("server: a shard's checkpoint disagrees with the journal")
)

// divergedError is one shard's checkpoint failing the overlap check.
type divergedError struct {
	shard int
	// whole says the journal reaches back to ID 0, so the shard can be
	// refilled from it over an empty checkpoint.
	whole bool
	msg   string
}

func (e *divergedError) Error() string {
	return fmt.Sprintf("%v: shard %d: %s", ErrCheckpointDiverged, e.shard, e.msg)
}
func (e *divergedError) Unwrap() error { return ErrCheckpointDiverged }

// checkpoint is one shard's store as recovery found it, before the journal
// is applied over it: what wal.Open recovered, with the log that takes the
// appends (a primary), or what the follower's sink holds, read only.
type checkpoint struct {
	st  *store.Memory
	log *wal.Log // nil on a follower
	rec wal.Recovery
	err error // the checkpoint could not be read: the shard is refilled, or the dir refused
}

// frontierShard is one shard under the frontier filter.
type frontierShard struct {
	st  *store.Memory
	log *wal.Log
	// front is the checkpoint's frontier: an event with a lower ID is the
	// checkpoint's to hold, one at or above it is added.
	front int
	// base, last and live describe the checkpoint as opened; every
	// verification on a shard precedes the first add to it (IDs ascend), so
	// they stay what the verifications are held against.
	base    int
	last    time.Time
	live    int
	present int // journaled events found in the checkpoint
	added   int // events added beyond it
	pending int // adds since the last WAL commit
}

// frontierStore is the store a journal replay writes to: the sharded
// store's allocator and placement, with each shard's adds filtered by its
// checkpoint frontier. With every frontier at 0 it is the sharded store.
// A divergence is sticky in err; callers check it after each record.
type frontierStore struct {
	*store.Sharded
	shards    []frontierShard
	retention time.Duration
	whole     bool // the journal being replayed starts at ID 0
	adds      int  // events added, all shards
	err       error
}

// newFrontierStore wraps the shards of cps, as they stand, in st.
func newFrontierStore(st *store.Sharded, cps []checkpoint, retention time.Duration) *frontierStore {
	f := &frontierStore{Sharded: st, shards: make([]frontierShard, st.NumShards()), retention: retention}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.st = st.Shard(i)
		if cps != nil {
			sh.log = cps[i].log
		}
		sh.front, sh.live = sh.st.NextID(), sh.st.Len()
		sh.st.Cut(func(c store.Cut) error { sh.base, _, _ = c.Bounds(); return nil }) //nolint:errcheck // the func returns nil
		_, sh.last, _ = sh.st.Span()
	}
	return f
}

// Add allocates the next global ID for in and places it.
func (f *frontierStore) Add(in event.Instance) *event.Instance {
	in.ID = f.AllocBlock(1)
	return f.place(in)
}

// place puts in, its ID assigned, on its shard: verified against the
// checkpoint below the shard's frontier (and nil returned — nothing was
// stored), added at or above it.
func (f *frontierStore) place(in event.Instance) *event.Instance {
	if f.err != nil {
		return nil
	}
	i := f.ShardFor(in.Loc)
	sh := &f.shards[i]
	if in.ID < sh.front {
		if msg := sh.verify(&in, f.retention); msg != "" {
			f.err = &divergedError{shard: i, whole: f.whole, msg: msg}
		}
		return nil
	}
	stored, err := sh.st.Put(in)
	if err != nil {
		f.err = &divergedError{shard: i, whole: f.whole, msg: err.Error()}
		return nil
	}
	sh.added++
	f.adds++
	// A refill commits as it goes, so the WAL's buffer stays a batch's size.
	if sh.pending++; sh.pending >= 8192 {
		f.err = f.commit()
	}
	return stored
}

// verify holds a journaled event below the frontier against the
// checkpoint: still there means equal; gone is only ever retention's
// doing — below the trimmed prefix, or older than the window behind the
// checkpoint's newest event.
func (sh *frontierShard) verify(in *event.Instance, retention time.Duration) string {
	got, ok := sh.st.Get(in.ID)
	if ok {
		if got.Name != in.Name || !got.Start.Equal(in.Start) || !got.End.Equal(in.End) || got.Loc != in.Loc || !maps.Equal(got.Attrs, in.Attrs) {
			return fmt.Sprintf("event %d is %q at %v in the checkpoint, %q at %v in the journal", in.ID, got.Name, got.Loc, in.Name, in.Loc)
		}
		sh.present++
		return ""
	}
	if in.ID < sh.base || (retention > 0 && in.End.Before(sh.last.Add(-retention))) {
		return ""
	}
	return fmt.Sprintf("event %d (%q, ended %v) is below the checkpoint's frontier %d and not in it, and retention does not explain it",
		in.ID, in.Name, in.End, sh.front)
}

// commit makes what was added durable in the shards' WALs.
func (f *frontierStore) commit() error {
	for i := range f.shards {
		sh := &f.shards[i]
		if sh.log == nil || sh.pending == 0 {
			continue
		}
		if err := sh.log.Commit(); err != nil {
			return fmt.Errorf("server: shard %d: wal: %v", i, err)
		}
		sh.pending = 0
	}
	return nil
}

// finish closes a replay: nothing a checkpoint holds may lie beyond the
// journal's end (a WAL is only ever written behind the journal), and on a
// whole journal nothing in it may have gone unverified.
func (f *frontierStore) finish() error {
	if f.err != nil {
		return f.err
	}
	for i := range f.shards {
		sh := &f.shards[i]
		switch {
		case sh.log != nil && sh.front > f.NextID():
			return &divergedError{shard: i, whole: f.whole,
				msg: fmt.Sprintf("the checkpoint reaches event ID %d, the journal ends at %d", sh.front, f.NextID())}
		case f.whole && sh.present != sh.live:
			return &divergedError{shard: i, whole: true,
				msg: fmt.Sprintf("the checkpoint holds %d events below ID %d, the journal put %d of them there", sh.live, sh.front, sh.present)}
		}
	}
	return f.commit()
}

// segmentHeader parses rec when it is a tail segment's header record.
func segmentHeader(rec []byte) (h wal.JournalSegmentHeader, ok bool, err error) {
	if !wal.IsJournalSegmentHeader(rec) {
		return h, false, nil
	}
	h, err = wal.ParseJournalSegmentHeader(rec)
	return h, true, err
}

// replayResult is what recoverJournal rebuilt.
type replayResult struct {
	coll      *collector.Collector
	st        *frontierStore // the recovered store, allocator at the journal's end
	finalized bool
	batches   int // journal records replayed, head and tail
	maxSeq    int
	info      RecoveryInfo // stage timings and tail counts
}

// head is segment 0 replayed through a fresh collector into a scratch
// store: the collector's parse state, and the events the head journaled.
type head struct {
	coll      *collector.Collector
	scratch   *store.Sharded
	finalized bool
	batches   int
	maxSeq    int
	bytes     int64 // the file's whole-frame prefix
	torn      bool  // bytes beyond it do not frame
	took      time.Duration
	err       error
}

// replayHead replays journal.log. File order is dispatch order, so dense
// ID allocation and shard placement replay exactly as the original
// dispatch produced them. It shares nothing with the checkpoints and runs
// beside their opening.
func replayHead(cfg Config, topo *netmodel.Topology) (h head) {
	began := obs.Now()
	defer func() { h.took = obs.Since(began) }()
	h.maxSeq = -1
	h.scratch = store.NewSharded(cfg.Shards)
	if cfg.Retention > 0 {
		h.scratch.SetRetention(cfg.Retention)
	}
	c := collector.New(topo, h.scratch, cfg.Bundle.Start.Year())
	c.LegacyParsers = cfg.legacyParsers
	c.WindowStart = cfg.Bundle.Start
	c.WindowEnd = cfg.Bundle.Start.Add(cfg.Bundle.Duration)
	h.coll = c
	ap := journalApplier{
		coll: c, st: newFrontierStore(h.scratch, nil, 0), dep: cfg.Bundle.CDN,
		// Replay only notes the phase; Open installs the serving artifacts
		// once, over the fully recovered store.
		serving: func() error {
			h.finalized = true
			return nil
		},
	}
	path := journalPath(cfg.DataDir)
	torn, err := wal.ScanJournal(path, func(p []byte) error {
		seq, err := ap.apply(p)
		if err != nil {
			return err
		}
		h.batches++
		h.maxSeq = seq
		h.bytes += int64(wal.FrameHeader + len(p))
		return nil
	})
	if err != nil {
		h.err = fmt.Errorf("server: journal replay: %v", err)
	}
	h.torn = torn >= 0
	return h
}

// recoverJournal replays the journal under cfg.DataDir over the
// checkpoints open returns. The head replays into its scratch store while
// open runs; its events then go through the frontier filter like the
// tail's, so a shard refill is nothing but the journal applied over an
// empty checkpoint. The checkpoints are returned also on error, for the
// caller to close.
func recoverJournal(cfg Config, topo *netmodel.Topology, tail []wal.JournalSegment, open func() []checkpoint) (replayResult, []checkpoint, error) {
	var rep replayResult
	var h head
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h = replayHead(cfg, topo)
	}()
	began := obs.Now()
	cps := open()
	rep.info.WALOpen = obs.Since(began)
	wg.Wait()
	rep.info.HeadReplay = h.took
	if h.err != nil {
		return rep, cps, h.err
	}
	rep.coll, rep.finalized, rep.batches, rep.maxSeq = h.coll, h.finalized, h.batches, h.maxSeq
	rep.info.JournalSegments = 1 + len(tail)

	// What framed of the head against where the tail says it begins: equal
	// is a whole journal (garbage behind a sealed head proves nothing
	// missing, and is cut like any torn tail); a gap is the dropped
	// segments, which the checkpoints must cover.
	path := journalPath(cfg.DataDir)
	whole := len(tail) == 0 || tail[0].Header.Offset == h.bytes
	switch {
	case len(tail) > 0 && !h.finalized:
		return rep, cps, fmt.Errorf("server: %s ends before the finalize record, yet tail segments follow it: the file is damaged", path)
	case h.torn && !whole:
		return rep, cps, fmt.Errorf("server: %s is damaged at byte %d (the next retained segment begins at %d)", path, h.bytes, tail[0].Header.Offset)
	case h.torn:
		if err := os.Truncate(path, h.bytes); err != nil {
			return rep, cps, err
		}
	}
	mems := make([]*store.Memory, len(cps))
	for i := range cps {
		if cps[i].err != nil {
			return rep, cps, &divergedError{shard: i, whole: whole, msg: "unreadable: " + cps[i].err.Error()}
		}
		mems[i] = cps[i].st
		rep.info.SnapshotsSkipped += cps[i].rec.SnapshotsSkipped
	}
	fs := newFrontierStore(store.NewShardedOf(mems), cps, cfg.Retention)
	fs.whole = whole
	rep.st = fs
	if !whole {
		need := tail[0].Header.Fronts
		if len(need) != len(fs.shards) {
			return rep, cps, fmt.Errorf("server: %s was written for %d shards, the data dir holds %d", tail[0].Path, len(need), len(fs.shards))
		}
		for i := range fs.shards {
			if fs.shards[i].front < need[i] {
				return rep, cps, fmt.Errorf("%w: shard %d's reaches event ID %d, %s needs it to reach %d",
					ErrCheckpointLost, i, fs.shards[i].front, tail[0].Path, need[i])
			}
		}
	}

	began = obs.Now()
	// The head's events, shard by shard: within a shard IDs ascend, which
	// is all a store and its WAL ask for.
	for i := 0; i < h.scratch.NumShards(); i++ {
		err := h.scratch.Shard(i).Cut(func(c store.Cut) error {
			base, next, _ := c.Bounds()
			return c.Each(base, next, func(in *event.Instance) error {
				fs.place(*in)
				return fs.err
			})
		})
		if err != nil {
			return rep, cps, err
		}
	}
	fs.SetNext(h.scratch.NextID())
	// From here on the collector's adds, should a record make any, are the
	// recovered store's.
	rep.coll.Store = fs
	ap := journalApplier{
		coll: rep.coll, st: fs, dep: cfg.Bundle.CDN,
		serving: func() error {
			rep.finalized = true
			return nil
		},
	}
	for k, seg := range tail {
		first := true
		fn := func(p []byte) error {
			if first {
				first = false
				hd, ok, err := segmentHeader(p)
				if err != nil || !ok {
					return fmt.Errorf("server: %s does not begin with a segment header: %v", seg.Path, err)
				}
				if k == 0 && !whole {
					fs.SetNext(hd.FirstID)
					rep.maxSeq = hd.FirstSeq - 1
				}
				if hd.FirstSeq != rep.maxSeq+1 || hd.FirstID != fs.NextID() {
					return fmt.Errorf("server: %s begins at sequence %d and event ID %d, the replay stands at %d and %d",
						seg.Path, hd.FirstSeq, hd.FirstID, rep.maxSeq+1, fs.NextID())
				}
				return nil
			}
			adds := fs.adds
			seq, err := ap.apply(p)
			if err = errors.Join(err, fs.err); err != nil {
				return err
			}
			rep.batches++
			rep.maxSeq = seq
			if fs.adds > adds {
				rep.info.TailApplied++
			} else {
				rep.info.TailVerified++
			}
			return nil
		}
		// Only the last file can end in a crash's torn frame; in a sealed one
		// bytes that do not frame are damage.
		var err error
		if k+1 == len(tail) {
			_, err = wal.ReplayJournal(seg.Path, fn)
		} else if torn, e := wal.ScanJournal(seg.Path, fn); e != nil {
			err = e
		} else if torn >= 0 {
			err = fmt.Errorf("server: %s is damaged at byte %d", seg.Path, torn)
		}
		if err != nil {
			return rep, cps, err
		}
	}
	err := fs.finish()
	rep.info.TailApply = obs.Since(began)
	for i := range fs.shards {
		// A shard filled from nothing: its WAL was lost, or never got as far
		// as its first commit.
		if sh := &fs.shards[i]; sh.log != nil && sh.front == 0 && sh.added > 0 {
			rep.info.WALRebuilt = true
		}
	}
	return rep, cps, err
}

// openWALs opens every shard's event WAL in parallel: the primary's
// checkpoints. One that does not open, or opens with a hole, says so in
// its err.
func openWALs(cfg Config) []checkpoint {
	n := cfg.Shards
	opts := wal.Options{
		Fsync: cfg.Fsync, FsyncInterval: cfg.FsyncInterval,
		SnapshotEvery: cfg.SnapshotEvery, Retention: cfg.Retention,
	}
	cps := make([]checkpoint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, st, rec, err := wal.Open(shardDir(cfg.DataDir, n, i), opts)
			if err == nil && rec.LostBelow > 0 {
				err = fmt.Errorf("no readable snapshot reaches event ID %d, below which segments were compacted away", rec.LostBelow)
			}
			cps[i] = checkpoint{st: st, log: l, rec: rec, err: err}
		}(i)
	}
	wg.Wait()
	return cps
}

func closeCheckpoints(cps []checkpoint) {
	for i := range cps {
		if cps[i].log != nil {
			cps[i].log.Close() //nolint:errcheck // being discarded
			cps[i].log = nil
		}
	}
}

// wipeShardState removes shard i's event WAL and snapshots.
func wipeShardState(dataDir string, n, i int) error {
	for _, sub := range []string{"wal", "snap"} {
		if err := os.RemoveAll(filepath.Join(shardDir(dataDir, n, i), sub)); err != nil {
			return err
		}
	}
	return nil
}
