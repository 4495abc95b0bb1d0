package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/wal"
)

var mRollsFailed = obs.GetCounter("journal.rolls.failed")

// batch is one dispatched ingest batch moving through the commit
// pipeline. The dispatcher fills seq and the stored slots and routes
// sub-batches to shards; appliers write stored instances into their
// positions and count pending down; the finisher waits for ready, runs
// the streaming processors, and replies.
type batch struct {
	seq int
	// stored collects the committed instances in original batch order,
	// across shards: applier j writes its events into its own positions.
	// The finisher reads it only after ready closes; the countdown's
	// atomic decrement and the channel close order those writes before
	// the reads.
	stored  []*event.Instance
	pending atomic.Int32
	ready   chan struct{}
	// res is the reply. Pre-set for inline-applied batches (feeds,
	// finalize, dispatch-time failures); computed by the finisher for
	// event batches.
	res   taskResult
	reply chan taskResult
	// failed is the batch's first commit error, set by whichever lane
	// hits one first; the finisher replies with it.
	failed atomic.Pointer[taskResult]
	// jdone closes once lane 0 has made the batch's journal record durable,
	// or failed to (jerr, written before the close). The other lanes of a
	// batch wait on it before they touch their stores, so no WAL ever holds
	// an event the journal does not; a batch wholly on lane 0 has none.
	jdone chan struct{}
	jerr  error
	// drain marks the sentinel finalize pushes through finishQ to wait
	// for every batch ahead of it: it carries no work and is not counted.
	drain bool
}

// fail records a commit error (journal, store, WAL) on the batch; only
// the first one sticks.
func (bt *batch) fail(status int, err error) {
	bt.failed.CompareAndSwap(nil, &taskResult{status: status, err: err})
}

// closedChan is the pre-closed ready channel shared by inline-applied
// batches.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// shardTask is one shard's slice of a batch, or a barrier. A barrier
// (wait != nil) carries no events: the applier acknowledges it after
// committing everything queued before it, which is how the dispatcher
// waits for all shards to catch up before applying feeds or finalize
// inline.
type shardTask struct {
	bt     *batch
	events []event.Instance // IDs pre-assigned by the dispatcher
	pos    []int            // events[j] commits into bt.stored[pos[j]]
	jrec   []byte           // the batch's journal record, on lane 0's slice
	// roll, on lane 0's slice, is the header of a new tail segment to
	// start before jrec is appended.
	roll *wal.JournalSegmentHeader
	wait *sync.WaitGroup // barrier
}

// dispatch admits one validated ingest request into the commit pipeline
// and waits for its result. The admission — everything order-sensitive:
// sequence numbering, ID allocation, routing, queue placement, and the
// inline collector phases — happens under dispatchMu in admit; the wait
// happens outside it.
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
// means the task was rejected (or applied to completion) and res is the
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
	case recFeed:
		return s.dispatchFeed(t)
	case recFinalize:
		return s.dispatchFinalize()
	default:
		return s.dispatchEvents(t)
	}
}

// reject answers 429 for an admission that found a queue full. Its
// Retry-After scales with how loaded the whole pipeline is — every shard
// queue plus the finisher's backlog: an almost-empty pipeline with one
// hot shard retries fast, a saturated one backs off harder.
func (s *Server) reject(reason string) (*batch, taskResult) {
	mRejected.Inc()
	depth, capacity := s.queueTotals()
	depth, capacity = depth+len(s.finishQ), capacity+cap(s.finishQ)
	return nil, taskResult{
		status:     http.StatusTooManyRequests,
		err:        fmt.Errorf("%s, retry later", reason),
		retryAfter: 1 + (3*depth)/max(capacity, 1),
	}
}

// dispatchEvents admits a normalized-event batch: reject while any
// involved shard queue is full (before consuming a sequence number or
// IDs, so both stay dense), then allocate, split by shard, and enqueue.
// The journal record — the verbatim request body — always rides lane 0's
// slice, even when no event routes there, so the journal has one
// appender and its file order is dispatch order; replaying it
// re-allocates the same IDs to the same events.
func (s *Server) dispatchEvents(t *task) (*batch, taskResult) {
	// Handlers reject empty batches before dispatch; guard here too so
	// nothing event-less is ever journaled as an event batch.
	if len(t.events) == 0 {
		return nil, errResult(http.StatusBadRequest, "empty event batch")
	}
	n := len(s.shards)
	routes := make([]int, len(t.events))
	perShard := make([]int, n)
	for j := range t.events {
		i := s.st.ShardFor(t.events[j].Loc)
		routes[j] = i
		perShard[i]++
	}
	for i, sh := range s.shards {
		if (i == 0 || perShard[i] > 0) && len(sh.queue) == cap(sh.queue) {
			return s.reject(fmt.Sprintf("ingest queue full (shard %d)", i))
		}
	}
	// The finisher's backlog gates admission too: committed batches sit
	// in finishQ until the streaming processors catch up, and the send
	// below happens under dispatchMu, so it must never block. Only
	// admission (under this lock) sends to finishQ and the finisher only
	// receives, so a vacancy observed here is still there at the send.
	if len(s.finishQ) == cap(s.finishQ) {
		return s.reject("ingest pipeline backlogged")
	}
	depth, _ := s.queueTotals()
	mQueueDepth.Set(int64(depth))

	seq := s.seq
	s.seq++
	block := s.st.AllocBlock(len(t.events))
	bt := &batch{
		seq:    seq,
		stored: make([]*event.Instance, len(t.events)),
		ready:  make(chan struct{}),
		reply:  make(chan taskResult, 1),
	}
	subs := make([]*shardTask, n)
	subs[0] = &shardTask{bt: bt, jrec: encodeRecord(seq, t.kind, "", t.raw)}
	if s.inTail && s.segBytes >= journalSegmentBytes {
		subs[0].roll, s.segBytes = s.tailHeader(seq, block), 0
	}
	s.segBytes += int64(wal.FrameHeader + len(subs[0].jrec))
	involved := 1
	for j := range t.events {
		i := routes[j]
		st := subs[i]
		if st == nil {
			st = &shardTask{bt: bt}
			subs[i] = st
			involved++
		}
		if st.events == nil {
			st.events = make([]event.Instance, 0, perShard[i])
			st.pos = make([]int, 0, perShard[i])
		}
		ev := t.events[j]
		ev.ID = block + j
		st.events = append(st.events, ev)
		st.pos = append(st.pos, j)
		s.fronts[i] = ev.ID + 1
	}
	if involved > 1 {
		bt.jdone = make(chan struct{})
	}
	bt.pending.Store(int32(involved))
	for i, st := range subs {
		if st != nil {
			s.shards[i].queue <- *st // admission guaranteed space
		}
	}
	s.finishQ <- bt
	return bt, taskResult{}
}

// dispatchFeed applies a raw feed batch inline: the collector's parse
// state is a single shared structure, so feeds serialize on dispatchMu
// by design (they are the bulk-load phase, not the streaming fast
// path). The barrier first drains every shard queue — the collector's
// Adds go straight to the shards, and each shard's WAL requires IDs to
// arrive in order, so all lower-ID queued events must be committed
// before the feed allocates higher ones.
func (s *Server) dispatchFeed(t *task) (*batch, taskResult) {
	if s.isFinalized() {
		return nil, errResult(http.StatusConflict, "feeds are closed: the system is finalized (use events)")
	}
	// Feeds reply through finishQ too; refuse while the finisher is
	// saturated so the send at the end can never block under dispatchMu.
	// (Finalize needs no such gate: drainFinisher empties finishQ first.)
	if len(s.finishQ) == cap(s.finishQ) {
		return s.reject("ingest pipeline backlogged")
	}
	s.barrier()
	// The fsynced journal append precedes the apply, so an invalid batch
	// is journaled too — replay hits the same deterministic parse error and
	// converges on the same state.
	bt := s.journalInline(recFeed, t.source, t.lines)
	if bt.res.err == nil {
		before := s.st.NextID()
		if err := s.coll.Ingest(t.source, bytes.NewReader(t.lines)); err != nil {
			bt.res = errResult(http.StatusBadRequest, "%v", err)
		} else {
			stored := s.st.NextID() - before
			mEvents.Add(int64(stored))
			bt.res = taskResult{status: http.StatusOK, resp: IngestResponse{Stored: stored}}
		}
		s.refreshFronts()
	}
	return s.finishInline(bt)
}

// dispatchFinalize closes the feed phase and installs the serving
// artifacts. It drains the whole pipeline first — the barrier commits
// every queued event, drainFinisher drains the finisher — so the rollup
// seed that installServing derives sees exactly the events of all
// acknowledged batches. The finalize record is the last one journal.log
// takes: with it applied the journal rolls to its first tail segment, and
// everything journaled from here on can be dropped behind the snapshots.
func (s *Server) dispatchFinalize() (*batch, taskResult) {
	if s.isFinalized() {
		return nil, errResult(http.StatusConflict, "already finalized")
	}
	s.barrier()
	s.drainFinisher()
	bt := s.journalInline(recFinalize, "", nil)
	if bt.res.err == nil {
		bt.res = taskResult{status: http.StatusOK}
		err := closeFeeds(s.coll, s.cfg.Bundle.CDN)
		if err == nil {
			err = s.installServing(false)
		}
		if err != nil {
			bt.res = errResult(http.StatusInternalServerError, "%v", err)
		} else {
			// closeFeeds stored events of its own. A roll that fails leaves
			// the records that follow in journal.log, kept whole like the
			// rest of it; the next boot rolls.
			s.refreshFronts()
			if s.rollJournal(s.tailHeader(s.seq, s.st.NextID())) == nil {
				s.inTail, s.segBytes = true, 0
			}
		}
	}
	return s.finishInline(bt)
}

// refreshFronts reads each shard's allocation frontier off its store.
// Callers hold dispatchMu with every lane idle (or not yet started), so
// the stores hold everything allocated.
func (s *Server) refreshFronts() {
	for i, sh := range s.shards {
		s.fronts[i] = sh.st.NextID()
	}
}

// tailHeader describes the tail segment whose first record will be seq,
// allocating event IDs from firstID on: admission's view of the journal at
// that point. Callers hold dispatchMu.
func (s *Server) tailHeader(seq, firstID int) *wal.JournalSegmentHeader {
	return &wal.JournalSegmentHeader{FirstSeq: seq, FirstID: firstID, Fronts: slices.Clone(s.fronts)}
}

// rollJournal makes a new tail segment the journal's active file. Runs on
// the journal's appender: lane 0's applier, or admission with it idle.
func (s *Server) rollJournal(h *wal.JournalSegmentHeader) error {
	err := s.jour.Roll(*h, nil, false)
	if err != nil {
		mRollsFailed.Inc()
	}
	return err
}

// dropJournalSegments unlinks, oldest first, every sealed tail segment
// that nothing needs any more: each event it allocated lies below the
// older of its shard's two retained snapshot manifests (so either
// manifest, alone, still recovers it), and no live follower has yet to
// read it — or the follower pins more than the hard cap allows. Each
// snapshot's manifest was durable (its directory fsynced) before the
// floor it raised was published, the directory is fsynced again behind
// the unlinks, and a segment's successor carries the frontiers the test
// is made against. With force, once journalForceAfter sealed segments
// wait, a shard that holds the oldest back is snapshotted from here: one
// that went idle would otherwise never snapshot again. Runs on the
// journal's appender.
func (s *Server) dropJournalSegments(force bool) {
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
		covered := true
		for i, sh := range s.shards {
			if force && sealed >= journalForceAfter {
				// The second snapshot makes the first one the older manifest.
				for k := 0; k < 2 && sh.log.Floor() < next.Fronts[i]; k++ {
					if sh.log.Snapshot() != nil {
						break // counted in wal.snapshots.failed
					}
				}
			}
			covered = covered && sh.log.Floor() >= next.Fronts[i]
		}
		if !covered || s.jour.DropOldest() != nil {
			break
		}
		dropped = true
	}
	if dropped {
		s.jour.SyncDir() //nolint:errcheck // an unlink that a crash undoes is a segment dropped again at the next boot
	}
}

// journalInline starts a batch that admission applies itself: it takes
// the next sequence number and appends and fsyncs the batch's record,
// its commit point. Callers hold dispatchMu and have passed barrier, so
// lane 0's applier — the journal's other appender — is idle and the
// record lands in sequence. A failure is left in the batch's reply.
func (s *Server) journalInline(kind byte, source string, body []byte) *batch {
	bt := &batch{seq: s.seq, ready: closedChan, reply: make(chan taskResult, 1)}
	s.seq++
	err := s.jour.AppendNoSync(encodeRecord(bt.seq, kind, source, body))
	if err == nil {
		err = s.syncJournal(bt.seq)
	}
	if err != nil {
		bt.res = errResult(http.StatusInternalServerError, "journal: %v", err)
	}
	return bt
}

// finishInline ends such a batch: it commits every shard's WAL behind
// what the apply stored (nothing, when the journal append failed) and
// queues the reply behind the batches already with the finisher.
func (s *Server) finishInline(bt *batch) (*batch, taskResult) {
	for _, sh := range s.shards {
		if err := sh.log.Commit(); err != nil && bt.res.err == nil {
			bt.res = errResult(http.StatusInternalServerError, "wal: %v", err)
		}
	}
	s.finishQ <- bt
	return bt, taskResult{}
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

// barrier blocks until every shard applier has committed everything
// queued before it. Callers hold dispatchMu, so nothing new can enter
// the queues while it waits.
func (s *Server) barrier() {
	var wg sync.WaitGroup
	wg.Add(len(s.shards))
	for _, sh := range s.shards {
		sh.queue <- shardTask{wait: &wg}
	}
	wg.Wait()
}

// drainFinisher blocks until the finisher has replied to every batch
// dispatched so far, by queueing a sentinel behind them and waiting for
// its reply. Callers hold dispatchMu, so the sentinel is the last thing
// in finishQ; the finisher never takes that lock and, past barrier, waits
// on no applier, so the send blocks at most until it frees one slot.
func (s *Server) drainFinisher() {
	bt := &batch{drain: true, ready: closedChan, reply: make(chan taskResult, 1)}
	s.finishQ <- bt
	<-bt.reply
}

// applier is shard sh's single writer: it drains the queue into commit
// groups so the journal fsync, the store inserts, and the WAL commit
// are each amortized across every batch already waiting — group commit
// per shard, with the bounded queue as the wait window, so fsync
// amortization grows exactly when load does. A barrier ends its group:
// the dispatcher is waiting on it and nothing can be queued behind it.
func (s *Server) applier(sh *shard) {
	defer close(sh.done)
	for {
		t, ok := <-sh.queue
		if !ok {
			return
		}
		group := []shardTask{t}
		if t.wait == nil {
		drain:
			for {
				select {
				case t2, ok := <-sh.queue:
					if !ok {
						break drain
					}
					group = append(group, t2)
					if t2.wait != nil {
						break drain
					}
				default:
					break drain
				}
			}
		}
		s.applyShardGroup(sh, group)
	}
}

// applyShardGroup commits one group on one shard. Lane 0 first stages
// the group's journal records (it carries them all), rolling to a new
// tail segment where admission said to, and fsyncs once — each batch's
// commit point, announced to the batch's other lanes. Every lane then
// inserts its events into the store (feeding the shard's WAL buffer) —
// the other lanes only once the batch's record is durable, and no lane at
// all for a batch whose record failed: the journal is dead from then on
// (its first error is sticky), and a WAL holding what the journal lacks
// is the one state recovery cannot add its way out of. One WAL commit,
// then each batch is counted down; lane 0 then drops the journal segments
// the snapshots have come to cover, and last a barrier is released.
func (s *Server) applyShardGroup(sh *shard, group []shardTask) {
	var jerr error
	staged, rolled := -1, false
	for i := range group {
		t := &group[i]
		if t.jrec == nil {
			continue
		}
		if t.roll != nil && jerr == nil {
			rolled = s.rollJournal(t.roll) == nil || rolled
		}
		if jerr == nil {
			if jerr = s.jour.AppendNoSync(t.jrec); jerr == nil {
				staged = t.bt.seq
			}
		}
	}
	if staged >= 0 && jerr == nil {
		jerr = s.syncJournal(staged)
	}
	for i := range group {
		t := &group[i]
		if t.jrec == nil {
			continue
		}
		if jerr != nil {
			t.bt.jerr = jerr
			t.bt.fail(http.StatusInternalServerError, fmt.Errorf("journal: %v", jerr))
		}
		if t.bt.jdone != nil {
			close(t.bt.jdone)
		}
	}
	for i := range group {
		t := &group[i]
		if t.wait != nil {
			continue
		}
		if t.jrec == nil {
			<-t.bt.jdone // another lane's slice of a batch lane 0 journals
		}
		if t.bt.jerr != nil {
			continue
		}
		for j := range t.events {
			stored, err := sh.st.Put(t.events[j])
			if err != nil {
				t.bt.fail(http.StatusInternalServerError, fmt.Errorf("store: %v", err))
				continue
			}
			t.bt.stored[t.pos[j]] = stored
		}
	}
	if err := sh.log.Commit(); err != nil {
		for i := range group {
			if group[i].wait == nil {
				group[i].bt.fail(http.StatusInternalServerError, fmt.Errorf("wal: %v", err))
			}
		}
	}
	for i := range group {
		if t := &group[i]; t.wait == nil && t.bt.pending.Add(-1) == 0 {
			close(t.bt.ready)
		}
	}
	// Behind the acknowledgements, so no batch waits on an unlink; ahead of
	// the barrier's release, so admission never finds lane 0 in the journal.
	if sh.idx == 0 {
		s.dropJournalSegments(rolled)
	}
	if t := &group[len(group)-1]; t.wait != nil { // a barrier ends its group
		t.wait.Done()
	}
}

// finisher is the pipeline's single join point: batches arrive on
// finishQ in dispatch (sequence) order, and for each one it waits for
// all involved shards to commit, runs the streaming processors over the
// stored events in original order, and replies. Observing strictly in
// sequence order on one goroutine is what makes responses — diagnosis
// lists included — byte-identical for every shard count.
func (s *Server) finisher() {
	defer close(s.finishDone)
	for bt := range s.finishQ {
		<-bt.ready
		if bt.stored != nil { // an event batch; the others arrive with res set
			if f := bt.failed.Load(); f != nil {
				bt.res = *f
			} else {
				bt.res = taskResult{status: http.StatusOK, resp: s.observeStored(bt.stored)}
			}
		}
		if !bt.drain {
			mBatches.Inc()
		}
		bt.reply <- bt.res
	}
}

// observeStored runs committed instances through every application's
// streaming processor in order. Shared by the finisher (primary) and
// the journal-stream apply path (follower), so both sides feed the
// processors the identical event sequence.
func (s *Server) observeStored(stored []*event.Instance) IngestResponse {
	var resp IngestResponse
	var served []servedApp // none before finalize
	if sv := s.serving.Load(); sv != nil {
		served = sv.apps
	}
	for _, in := range stored {
		if in == nil {
			continue
		}
		resp.Stored++
		for i := range served {
			a := &served[i]
			ds, late := a.proc.ObserveStored(in)
			if late {
				resp.Late++
			}
			for _, d := range ds {
				dj := diagnosisJSON(d)
				dj.App = a.Name
				resp.Diagnoses = append(resp.Diagnoses, dj)
			}
		}
	}
	mEvents.Add(int64(resp.Stored))
	return resp
}
