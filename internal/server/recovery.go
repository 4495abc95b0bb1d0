package server

import (
	"errors"
	"fmt"
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
// §15), the same on a primary and a follower. The checkpoint is snap/ as
// wal.OpenCheckpoint restores it; the journal is replayed over it through
// a frontier — an event the checkpoint already holds is verified against
// it and skipped, one it lacks is added — so the store the node serves is
// the checkpoint plus exactly what the journal holds beyond it.

var (
	// ErrCheckpointLost refuses a data dir whose journal no longer reaches
	// back to what the checkpoint lacks: the tail segments that held the
	// events were dropped behind checkpoints that are gone (a deleted or
	// unreadable snap/). Serving would mean serving a store with a hole.
	ErrCheckpointLost = errors.New("server: the checkpoint ends below the retained journal tail")
	// ErrCheckpointDiverged refuses a data dir where the checkpoint and the
	// journal disagree about an event both hold, and the journal no longer
	// reaches back to ID 0 to refill the store from.
	ErrCheckpointDiverged = errors.New("server: the checkpoint disagrees with the journal")
)

// divergedError is the checkpoint failing the overlap check.
type divergedError struct {
	// whole says the journal reaches back to ID 0, so the store can be
	// refilled from it over an empty checkpoint.
	whole bool
	msg   string
}

func (e *divergedError) Error() string { return fmt.Sprintf("%v: %s", ErrCheckpointDiverged, e.msg) }
func (e *divergedError) Unwrap() error { return ErrCheckpointDiverged }

// checkpoint is the store as recovery found it, before the journal is
// applied over it: what wal.OpenCheckpoint restored, with the checkpointer
// that takes the next ones.
type checkpoint struct {
	st   *store.Memory
	ckpt *wal.Checkpointer // nil only when the checkpoint did not open (err)
	rec  wal.Recovery
	err  error // the checkpoint could not be read: the store is refilled, or the dir refused
}

// frontierStore is the store a journal replay writes to: a checkpoint's
// store, with every Add filtered by the checkpoint's frontier. It allocates
// the IDs itself — below the store's own frontier while the retained tail
// is replayed over the checkpoint — so it is for a store no one else is
// writing: journalApplier.writeTo hands it to the applier and to the
// collector together. With the frontier at 0 it is the store. A divergence
// is sticky in err; callers check it after each record.
type frontierStore struct {
	*store.Memory
	// next is the allocator: the ID the journal's next event takes.
	next int
	// front is the checkpoint's frontier: an event with a lower ID is the
	// checkpoint's to hold, one at or above it is added.
	front int
	// base, last and live describe the checkpoint as opened; every
	// verification precedes the first add (IDs ascend), so they stay what
	// the verifications are held against.
	base      int
	last      time.Time
	live      int
	present   int // journaled events found in the checkpoint
	added     int // events added beyond it
	retention time.Duration
	whole     bool // the journal being replayed starts at ID 0
	err       error
}

// newFrontierStore wraps cp's store, as it stands, with the allocator at
// its frontier.
func newFrontierStore(cp checkpoint, retention time.Duration) *frontierStore {
	f := &frontierStore{Memory: cp.st, retention: retention}
	f.front, f.live = cp.st.NextID(), cp.st.Len()
	f.next = f.front
	cp.st.Cut(func(c store.Cut) error { f.base, _, _ = c.Bounds(); return nil }) //nolint:errcheck // the func returns nil
	_, f.last, _ = cp.st.Span()
	return f
}

// NextID returns the ID the next Add allocates.
func (f *frontierStore) NextID() int { return f.next }

// Add allocates the next ID for in and places it.
func (f *frontierStore) Add(in event.Instance) *event.Instance {
	in.ID = f.next
	f.next++
	return f.place(in)
}

// place puts in, its ID assigned: verified against the checkpoint below
// the frontier (and nil returned — nothing was stored), added at or above
// it.
func (f *frontierStore) place(in event.Instance) *event.Instance {
	if f.err != nil {
		return nil
	}
	if in.ID < f.front {
		if msg := f.verify(&in); msg != "" {
			f.err = &divergedError{whole: f.whole, msg: msg}
		}
		return nil
	}
	stored, err := f.Put(in)
	if err != nil {
		f.err = &divergedError{whole: f.whole, msg: err.Error()}
		return nil
	}
	f.added++
	return stored
}

// verify holds a journaled event below the frontier against the
// checkpoint: still there means equal; gone is only ever retention's
// doing — below the trimmed prefix, or older than the window behind the
// checkpoint's newest event.
func (f *frontierStore) verify(in *event.Instance) string {
	got, ok := f.Get(in.ID)
	if ok {
		if got.Name != in.Name || !got.Start.Equal(in.Start) || !got.End.Equal(in.End) || got.Loc != in.Loc || got.Attrs != in.Attrs {
			return fmt.Sprintf("event %d is %q at %v in the checkpoint, %q at %v in the journal", in.ID, got.Name, got.Loc, in.Name, in.Loc)
		}
		f.present++
		return ""
	}
	if in.ID < f.base || (f.retention > 0 && in.End.Before(f.last.Add(-f.retention))) {
		return ""
	}
	return fmt.Sprintf("event %d (%q, ended %v) is below the checkpoint's frontier %d and not in it, and retention does not explain it",
		in.ID, in.Name, in.End, f.front)
}

// finish closes a replay: nothing the checkpoint holds may lie beyond the
// journal's end (a checkpoint is only ever taken behind the journal), and
// on a whole journal nothing in it may have gone unverified.
func (f *frontierStore) finish() error {
	switch {
	case f.err != nil:
		return f.err
	case f.front > f.next:
		return &divergedError{whole: f.whole,
			msg: fmt.Sprintf("the checkpoint reaches event ID %d, the journal ends at %d", f.front, f.next)}
	case f.whole && f.present != f.live:
		return &divergedError{whole: true,
			msg: fmt.Sprintf("the checkpoint holds %d events below ID %d, the journal put %d of them there", f.live, f.front, f.present)}
	}
	return nil
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
	scratch   *store.Memory
	finalized bool
	batches   int
	maxSeq    int
	bytes     int64 // the file's whole-frame prefix
	torn      bool  // bytes beyond it do not frame
	took      time.Duration
	err       error
}

// replayHead replays journal.log. File order is dispatch order, so dense
// ID allocation replays exactly as the original dispatch produced it. It
// shares nothing with the checkpoint and runs beside its opening.
func replayHead(cfg Config, topo *netmodel.Topology) (h head) {
	began := obs.Now()
	defer func() { h.took = obs.Since(began) }()
	h.maxSeq = -1
	h.scratch = store.New()
	h.scratch.SetRetention(cfg.Retention)
	fs := newFrontierStore(checkpoint{st: h.scratch}, 0)
	c := collector.New(topo, fs, cfg.Bundle.Start.Year())
	c.WindowStart = cfg.Bundle.Start
	c.WindowEnd = cfg.Bundle.Start.Add(cfg.Bundle.Duration)
	h.coll = c
	ap := journalApplier{
		coll: c, dep: cfg.Bundle.CDN,
		// Replay only notes the phase; Open installs the serving artifacts
		// once, over the fully recovered store.
		serving: func() error {
			h.finalized = true
			return nil
		},
	}
	ap.writeTo(fs)
	torn, err := wal.ScanJournal(wal.JournalHead(cfg.DataDir), func(p []byte) error {
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

// recoverJournal replays the journal under cfg.DataDir over the newest
// readable checkpoint. The head replays into its scratch store while the
// checkpoint loads; its events then go through the frontier filter like
// the tail's, so a refill is nothing but the journal applied over an empty
// checkpoint. wal.ReplayJournalTail reads, checks and measures the tail in
// place; of its shape only the head→tail boundary is judged here.
func recoverJournal(cfg Config, topo *netmodel.Topology, tail []wal.JournalSegment) (replayResult, checkpoint, error) {
	var rep replayResult
	var h head
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h = replayHead(cfg, topo)
	}()
	began := obs.Now()
	cp := openCheckpoint(cfg)
	rep.info.CheckpointOpen = obs.Since(began)
	wg.Wait()
	rep.info.HeadReplay = h.took
	if h.err != nil {
		return rep, cp, h.err
	}
	rep.coll, rep.finalized, rep.batches, rep.maxSeq = h.coll, h.finalized, h.batches, h.maxSeq
	rep.info.JournalSegments = 1 + len(tail)

	// A tail segment begins only at a roll, and a roll only follows the
	// finalize record. Whether the head runs on into the tail is wal's to
	// judge, and a torn head wal's to cut.
	if len(tail) > 0 && !h.finalized {
		return rep, cp, fmt.Errorf("server: %s ends before the finalize record, yet tail segments follow it: the file is damaged", wal.JournalHead(cfg.DataDir))
	}
	whole, err := wal.RecoverJournalHead(cfg.DataDir, h.bytes, h.torn, tail)
	if err != nil {
		return rep, cp, err
	}
	if cp.err != nil {
		return rep, cp, &divergedError{whole: whole, msg: "unreadable: " + cp.err.Error()}
	}
	rep.info.SnapshotsSkipped = cp.rec.SnapshotsSkipped
	fs := newFrontierStore(cp, cfg.Retention)
	fs.whole = whole
	rep.st = fs
	if !whole && fs.front < tail[0].Header.Front {
		return rep, cp, fmt.Errorf("%w: it reaches event ID %d, %s needs it to reach %d",
			ErrCheckpointLost, fs.front, tail[0].Path, tail[0].Header.Front)
	}

	began = obs.Now()
	// The head's events, in the ID order a store asks for.
	err = h.scratch.Cut(func(c store.Cut) error {
		base, next, _ := c.Bounds()
		return c.Each(base, next, func(in *event.Instance) error {
			fs.place(*in)
			return fs.err
		})
	})
	if err != nil {
		return rep, cp, err
	}
	fs.next = h.scratch.NextID()
	// From here on the collector's adds, should a record make any, are the
	// recovered store's.
	ap := journalApplier{
		coll: rep.coll, dep: cfg.Bundle.CDN,
		serving: func() error {
			rep.finalized = true
			return nil
		},
	}
	ap.writeTo(fs)
	// A whole head hands over at its last sequence and event ID; behind a
	// gap the first tail segment says where the replay stands.
	err = wal.ReplayJournalTail(tail, func(k int) error {
		if k > 0 {
			return nil
		}
		hd := tail[0].Header
		if !whole {
			fs.next = hd.FirstID
			rep.maxSeq = hd.FirstSeq - 1
		}
		if hd.FirstSeq != rep.maxSeq+1 || hd.FirstID != fs.next {
			return fmt.Errorf("server: %s begins at sequence %d and event ID %d, the replay stands at %d and %d",
				tail[0].Path, hd.FirstSeq, hd.FirstID, rep.maxSeq+1, fs.next)
		}
		return nil
	}, func(p []byte) error {
		added := fs.added
		seq, err := ap.apply(p)
		if err = errors.Join(err, fs.err); err != nil {
			return err
		}
		rep.batches++
		rep.maxSeq = seq
		if fs.added > added {
			rep.info.TailApplied++
		} else {
			rep.info.TailVerified++
		}
		return nil
	})
	if err != nil {
		return rep, cp, err
	}
	err = fs.finish()
	rep.info.TailApply = obs.Since(began)
	return rep, cp, err
}

// openCheckpoint restores the newest readable checkpoint. One that does
// not open, or opens with a hole, says so in its err.
func openCheckpoint(cfg Config) checkpoint {
	c, st, rec, err := wal.OpenCheckpoint(cfg.DataDir, wal.Options{Retention: cfg.Retention})
	if err == nil && rec.LostBelow > 0 {
		err = fmt.Errorf("no readable checkpoint reaches event ID %d, below which journal segments were dropped", rec.LostBelow)
	}
	return checkpoint{st: st, ckpt: c, rec: rec, err: err}
}
