package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/wal"
)

var (
	mRollsFailed = obs.GetCounter("journal.rolls.failed")
	// What feed batches cost the journal: the lines posted, and the framed
	// records they were journaled as.
	mFeedLineBytes   = obs.GetCounter("journal.feed.lines_bytes")
	mFeedRecordBytes = obs.GetCounter("journal.feed.record_bytes")
)

// batch is one admitted event batch moving through the commit pipeline:
// admission fills seq, stamps the event IDs and encodes the journal
// record; the applier commits it and fills stored (or res, with the
// batch's first commit error); the observer runs the streaming processor
// over stored and replies. One goroutine holds a batch at a time, handed on
// by channel.
type batch struct {
	seq    int
	events []event.Instance // the request's decoded events, IDs assigned
	jrec   []byte           // the batch's journal record
	// roll is the header of a new tail segment to start before jrec is
	// appended: such a batch begins its commit group, and the store is
	// checkpointed between the roll and the group's inserts.
	roll   *wal.JournalSegmentHeader
	stored []*event.Instance // the committed instances, in batch order
	res    taskResult
	reply  chan taskResult
	// drain marks the sentinel a feed or finalize sends through both stages
	// to wait for every batch ahead of it: it carries no work and is not
	// counted.
	drain bool
}

// fail records a commit error (journal, store) on the batch; only the
// first one sticks.
func (bt *batch) fail(format string, args ...any) {
	if bt.res.err == nil {
		bt.res = errResult(http.StatusInternalServerError, format, args...)
	}
}

// dispatch admits one validated ingest request into the commit pipeline
// and waits for its result. The admission — everything order-sensitive:
// sequence numbering, ID allocation, queue placement, and the inline
// collector phases — happens under dispatchMu in admit; the wait happens
// outside it.
func (s *Server) dispatch(ctx context.Context, t task) taskResult {
	bt, res := s.admit(&t)
	if bt == nil {
		return res
	}
	select {
	case r := <-bt.reply:
		return r
	case <-ctx.Done():
		return errResult(http.StatusServiceUnavailable, "timed out waiting for the commit pipeline")
	}
}

// admit routes one task into the pipeline under dispatchMu. A nil batch
// means the task was rejected, or applied to completion, and res is the
// final answer; otherwise the caller waits on the batch's reply channel.
func (s *Server) admit(t *task) (*batch, taskResult) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	select {
	case <-s.closing:
		return nil, errResult(http.StatusServiceUnavailable, "server is shutting down")
	default:
	}
	switch t.kind {
	case wal.JournalFeedKind:
		return nil, s.applyFeed(t)
	case wal.JournalFinalizeKind:
		return nil, s.applyFinalize()
	default:
		return s.admitEvents(t)
	}
}

// admitEvents admits a normalized-event batch: reject while the queue is
// full (before consuming a sequence number or IDs, so both stay dense),
// then allocate and enqueue. The journal record is the handler's event
// block behind the sequence number; the applier appends records in queue
// order, so the journal's file order is dispatch order and replaying it
// re-allocates the same IDs to the same events. The tail rolls once its
// active segment holds journalSegmentBytes or SnapshotEvery events, and
// every roll is a checkpoint: -snapshot-every is the events between two.
func (s *Server) admitEvents(t *task) (*batch, taskResult) {
	// Handlers reject empty batches before dispatch; guard here too so
	// nothing event-less is ever journaled as an event batch.
	if len(t.events) == 0 {
		return nil, errResult(http.StatusBadRequest, "empty event batch")
	}
	// Only admission (under this lock) sends on the queue, so a vacancy
	// observed here is still there at the send below, which therefore never
	// blocks. The Retry-After scales with how loaded both stages are: a
	// backlog only the applier has retries sooner than one the observer
	// shares.
	depth := len(s.queue)
	if depth == cap(s.queue) {
		mRejected.Inc()
		depth, capacity := depth+len(s.observeQ), cap(s.queue)+cap(s.observeQ)
		return nil, taskResult{
			status:     http.StatusTooManyRequests,
			err:        fmt.Errorf("ingest queue full, retry later"),
			retryAfter: 1 + (3*depth)/max(capacity, 1),
		}
	}
	mQueueDepth.Set(int64(depth))

	bt := &batch{
		seq: s.seq, events: t.events,
		jrec:  wal.AppendJournalRecord(nil, wal.JournalRecord{Seq: s.seq, Kind: t.kind, Body: t.raw}),
		reply: make(chan taskResult, 1),
	}
	if s.inTail && (s.segBytes >= journalSegmentBytes || (s.cfg.SnapshotEvery > 0 && s.segEvents >= s.cfg.SnapshotEvery)) {
		bt.roll, s.segBytes, s.segEvents = s.tailHeader(), 0, 0
	}
	s.segBytes += int64(wal.FrameHeader + len(bt.jrec))
	s.segEvents += len(bt.events)
	for j := range bt.events {
		bt.events[j].ID = s.nextID + j
	}
	s.seq++
	s.nextID += len(bt.events)
	s.queue <- bt
	return bt, taskResult{}
}

// applyFeed applies a raw feed batch inline: the collector's parse state
// is a single shared structure, so feeds serialize on dispatchMu by design
// (they are the bulk-load phase, not the streaming fast path). The drain
// first empties the pipeline — the collector's Adds go straight to the
// store, which requires IDs to arrive in order, so every queued event must
// be committed before the feed allocates higher ones.
func (s *Server) applyFeed(t *task) taskResult {
	if s.isFinalized() {
		return errResult(http.StatusConflict, "feeds are closed: the system is finalized (use events)")
	}
	s.drain()
	// The fsynced journal append precedes the apply, so an invalid batch
	// is journaled too — replay hits the same deterministic parse error and
	// converges on the same state. The journal takes the handler's DEFLATE
	// body; the collector parses the lines as they came, so a primary never
	// inflates.
	n, res := s.journalInline(wal.JournalFeedKind, t.source, t.raw)
	if res.err == nil {
		mFeedLineBytes.Add(int64(len(t.lines)))
		mFeedRecordBytes.Add(int64(n))
		if err := s.coll.Ingest(t.source, bytes.NewReader(t.lines)); err != nil {
			res = errResult(http.StatusBadRequest, "%v", err)
		} else {
			stored := s.st.NextID() - s.nextID
			mEvents.Add(int64(stored))
			res = taskResult{status: http.StatusOK, resp: IngestResponse{Stored: stored}}
		}
		s.nextID = s.st.NextID()
	}
	mBatches.Inc()
	return res
}

// applyFinalize closes the feed phase and installs the serving artifacts.
// It drains the pipeline first, so the rollup seed that installServing
// derives sees exactly the events of all acknowledged batches. The
// finalize record is the last one journal.log takes: with it applied the
// journal rolls to its first tail segment, the store — the feed phase's
// events — is checkpointed, and everything journaled from here on can be
// dropped behind the checkpoints.
func (s *Server) applyFinalize() taskResult {
	if s.isFinalized() {
		return errResult(http.StatusConflict, "already finalized")
	}
	s.drain()
	_, res := s.journalInline(wal.JournalFinalizeKind, "", nil)
	if res.err == nil {
		res = taskResult{status: http.StatusOK}
		err := closeFeeds(s.coll, s.cfg.Bundle.CDN)
		s.nextID = s.st.NextID() // closeFeeds stored events of its own
		if err == nil {
			err = s.installServing(false)
		}
		if err != nil {
			res = errResult(http.StatusInternalServerError, "%v", err)
		} else {
			// A roll that fails leaves the records that follow in journal.log,
			// kept whole like the rest of it; the next boot rolls. A checkpoint
			// that fails is counted, and the next roll's covers the same.
			s.rollAndCheckpoint() //nolint:errcheck // see above
		}
	}
	mBatches.Inc()
	return res
}

// tailHeader describes the tail segment whose first record will be the
// next batch admitted: admission's view of the journal at that point.
// Callers hold dispatchMu.
func (s *Server) tailHeader() *wal.JournalSegmentHeader {
	return &wal.JournalSegmentHeader{FirstSeq: s.seq, FirstID: s.nextID, Front: s.nextID}
}

// rollJournal makes a new tail segment the journal's active file. Runs on
// the journal's appender: the applier, or admission with it idle.
func (s *Server) rollJournal(h *wal.JournalSegmentHeader) error {
	err := s.jour.Roll(*h, nil, false)
	if err != nil {
		mRollsFailed.Inc()
	}
	return err
}

// rollAndCheckpoint seals what the journal's active file holds with a
// roll — unless it is a tail segment that holds no record yet — and
// checkpoints: afterwards the checkpoint alone holds every stored event.
// Runs on a primary's journal appender with nothing in flight (boot,
// finalize, shutdown, promotion), under dispatchMu or with the pipeline
// stopped.
func (s *Server) rollAndCheckpoint() error {
	if tail := s.jour.Tail(); len(tail) == 0 || tail[len(tail)-1].Events != 0 {
		if err := s.rollJournal(s.tailHeader()); err != nil {
			return err
		}
		s.inTail, s.segBytes, s.segEvents = true, 0, 0
	}
	return s.checkpoint()
}

// checkpoint makes the store durable under snap/ over the journal's sealed
// tail segments, which a roll synced. Callers checkpoint right behind a
// roll, where the store holds exactly the events below the active segment:
// no run ever covers it, and the manifest is the store as the journal's
// replay leaves it there.
func (s *Server) checkpoint() error {
	tail := s.jour.Tail()
	if len(tail) > 0 {
		tail = tail[:len(tail)-1]
	}
	return s.ckpt.Checkpoint(s.st, tail)
}

// dropJournalSegments unlinks, oldest first, every sealed tail segment
// that nothing needs any more: each event it allocated lies below the
// older of the two retained checkpoint manifests (so either manifest,
// alone, still recovers it), and no live follower has yet to read it — or
// the follower pins more than the hard cap allows. Each checkpoint's
// manifest was durable (its directory fsynced) before the floor it raised
// was published, the directory is fsynced again behind the unlinks, and a
// segment's successor carries the frontier the test is made against. A
// segment a run was linked from keeps its file under snap/. Runs on the
// journal's appender.
func (s *Server) dropJournalSegments() {
	dropped := false
	for {
		tail := s.jour.Tail()
		if len(tail) < 2 {
			break
		}
		sealed, next := len(tail)-1, tail[1].Header
		if pin := s.replReg.PinJournal(); pin >= 0 && pin < next.FirstSeq && int64(sealed) <= s.pinCap.Load() {
			break
		}
		if s.ckpt.Floor() < next.Front || s.jour.DropOldest() != nil {
			break
		}
		dropped = true
	}
	if dropped {
		s.jour.SyncDir() //nolint:errcheck // an unlink that a crash undoes is a segment dropped again at the next boot
	}
}

// journalInline takes the next sequence number for a batch that admission
// applies itself and appends and fsyncs the batch's record, its commit
// point, and says how many bytes the framed record took. Callers hold
// dispatchMu and have drained the pipeline, so the applier — the journal's
// other appender — is idle and the record lands in sequence.
func (s *Server) journalInline(kind byte, source string, body []byte) (int, taskResult) {
	seq := s.seq
	s.seq++
	rec := wal.AppendJournalRecord(nil, wal.JournalRecord{Seq: seq, Kind: kind, Source: source, Body: body})
	err := s.jour.AppendNoSync(rec)
	if err == nil {
		err = s.syncJournal(seq)
	}
	if err != nil {
		return 0, errResult(http.StatusInternalServerError, "journal: %v", err)
	}
	return wal.FrameHeader + len(rec), taskResult{}
}

// syncJournal fsyncs the journal — the commit point of every record
// staged so far — and advances the durable frontier to seq, the last of
// them.
func (s *Server) syncJournal(seq int) error {
	if err := s.jour.Sync(); err != nil {
		return err
	}
	s.journaled.Store(int64(seq))
	return nil
}

// drain blocks until the applier has committed, and the observer replied
// to, every batch admitted so far, by sending a sentinel through both and
// waiting for its reply. Callers hold dispatchMu, so nothing enters the
// queue behind the sentinel and both stages are idle when it returns.
// Neither stage takes that lock, so the send blocks at most until the
// applier frees one slot.
func (s *Server) drain() {
	bt := &batch{drain: true, reply: make(chan taskResult, 1)}
	s.queue <- bt
	<-bt.reply
}

// applier is the store's and (but for inline batches) the journal's
// single writer: it drains the queue into commit groups so the journal
// fsync and the store inserts are amortized across every batch already
// waiting — group commit, with the bounded queue as the wait window, so
// fsync amortization grows exactly when load does. A drain sentinel ends
// its group: admission is waiting on it and nothing can be queued behind
// it. A batch that rolls the journal begins the next one.
func (s *Server) applier() {
	defer close(s.observeQ)
	var rolls *batch // received, and the first of the next group
	for {
		bt := rolls
		if rolls = nil; bt == nil {
			var ok bool
			if bt, ok = <-s.queue; !ok {
				return
			}
		}
		group := []*batch{bt}
	fill:
		for !group[len(group)-1].drain {
			select {
			case next, ok := <-s.queue:
				if !ok {
					break fill
				}
				if next.roll != nil {
					rolls = next
					break fill
				}
				group = append(group, next)
			default:
				break fill
			}
		}
		s.commitGroup(group)
	}
}

// commitGroup commits one group, in statement order. A group that begins
// with a roll starts the journal's new tail segment and checkpoints the
// store, which holds exactly the events of the segments the roll sealed.
// The group's journal records are staged and fsynced once — each batch's
// commit point. Only then are the events inserted into the store, and not
// at all when the journal failed: it is dead from then on (its first
// error is sticky), and a store holding what the journal lacks is the one
// state recovery cannot add its way out of. Each batch goes to the
// observer; the journal segments the checkpoints have come to cover are
// dropped behind them, and last a sentinel is passed on.
func (s *Server) commitGroup(group []*batch) {
	var sentinel *batch
	if last := group[len(group)-1]; last.drain {
		sentinel, group = last, group[:len(group)-1]
	}
	if len(group) > 0 && group[0].roll != nil && s.rollJournal(group[0].roll) == nil {
		s.checkpoint() //nolint:errcheck // counted in wal.snapshots.failed; the next roll's checkpoint covers the same
	}
	var jerr error
	for _, bt := range group {
		if jerr != nil {
			break
		}
		jerr = s.jour.AppendNoSync(bt.jrec)
	}
	if len(group) > 0 && jerr == nil {
		jerr = s.syncJournal(group[len(group)-1].seq)
	}
	for _, bt := range group {
		if jerr != nil {
			bt.fail("journal: %v", jerr)
			continue
		}
		// The store keeps rows, not the batch: what the hooks and the
		// observer see is the decoded batch itself, no per-event copy.
		if err := s.st.PutAll(bt.events); err != nil {
			bt.fail("store: %v", err)
			continue
		}
		bt.stored = make([]*event.Instance, len(bt.events))
		for j := range bt.events {
			bt.stored[j] = &bt.events[j]
		}
	}
	for _, bt := range group {
		s.observeQ <- bt
	}
	// Behind the hand-off, so no batch waits on an unlink; ahead of the
	// sentinel, so admission never finds the applier in the journal.
	s.dropJournalSegments()
	if sentinel != nil {
		s.observeQ <- sentinel
	}
}

// observer is the pipeline's second stage: batches arrive in sequence
// order, committed, and for each it runs the streaming processor over the
// stored events and replies. It is a goroutine of its own so that this
// work overlaps the next group's fsync.
func (s *Server) observer() {
	defer close(s.observed)
	for bt := range s.observeQ {
		if !bt.drain {
			if bt.res.err == nil {
				bt.res = taskResult{status: http.StatusOK, resp: s.observeStored(bt.stored)}
			}
			mBatches.Inc()
		}
		bt.reply <- bt.res
	}
}

// observeStored runs committed instances through the streaming processor
// in order. Shared by the observer (primary) and the journal-stream apply
// path (follower), so both sides feed the processor the identical event
// sequence.
func (s *Server) observeStored(stored []*event.Instance) IngestResponse {
	var resp IngestResponse
	sv := s.serving.Load() // nil before finalize
	for _, in := range stored {
		if in == nil {
			continue
		}
		resp.Stored++
		if sv == nil {
			continue
		}
		sv.noteArrival(in)
		ds, late := sv.proc.ObserveStored(in)
		resp.Late += late
		for _, d := range ds {
			dj := diagnosisJSON(d)
			dj.App = sv.rootOf[d.Symptom.Name]
			resp.Diagnoses = append(resp.Diagnoses, dj)
		}
	}
	mEvents.Add(int64(resp.Stored))
	return resp
}
