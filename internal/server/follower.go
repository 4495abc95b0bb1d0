package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/replica"
	"grca/internal/wal"
)

var mReplCheckpoints = obs.GetCounter("replica.follower.checkpoints.loaded")

// followerState is the replica-only half of a Server: the stream client
// and the lag bookkeeping. Everything else is a primary's: Open recovers a
// follower's store from its own checkpoint and journal, and apply is the
// same journalApplier over the same frontier store with the serving hooks
// attached — the follower IS a recovery that never stops replaying, and
// it checkpoints and drops journal segments at the primary's rolls.
type followerState struct {
	primary string // primary base URL, no trailing slash
	id      string // stable follower stream ID (REPLICA file)
	bootID  string // primary incarnation being replicated

	apply  journalApplier
	client *replica.Client

	appliedSeq atomic.Int64 // last journal sequence applied (and locally journaled)

	// incoming is the store checkpoint arriving on the journal stream ahead
	// of a tail segment whose predecessors the primary has dropped, written
	// into snap/ as it comes; image is the one that has arrived whole. That
	// segment's header record installs it as the live store. Only the
	// client's goroutine touches them.
	incoming *wal.ImageWriter
	image    *wal.ImageWriter

	// sealOnce makes the seal idempotent between Promote and Shutdown, and
	// promoteOnce serializes promotion without holding any lock across the
	// reopen (which acquires the whole pipeline's lock set — a mutex here
	// would nest above all of them).
	sealOnce    sync.Once
	sealErr     error
	promoting   atomic.Bool
	promoteOnce sync.Once
	promoteInfo PromoteInfo
	promoteErr  error

	mu        sync.Mutex
	hb        replica.Msg // last heartbeat
	hbAt      time.Time
	lastMsg   time.Time
	streamErr error
}

// promotedNode is the primary a promoted replica delegates to.
type promotedNode struct {
	srv  *Server
	h    http.Handler
	info PromoteInfo
}

// PromoteInfo is the promote endpoint's answer.
type PromoteInfo struct {
	Role string `json:"role"`
	// BootID is the promoted node's new primary incarnation.
	BootID string `json:"boot_id"`
	// AppliedSeq is the last stream sequence applied before the seal.
	AppliedSeq int `json:"applied_seq"`
	// Recovery is the reopen's report. The seal rolls and checkpoints, so
	// the retained tail is verified (TailVerified), not applied.
	Recovery RecoveryInfo `json:"recovery"`
	// Digest is the promoted store's digest.
	Digest string `json:"digest"`
}

// fetchPrimaryMeta fetches the primary's rendezvous document, retrying
// briefly so a follower and its primary can start together. Each of the
// ten attempts is bounded by perAttempt, so a primary that accepts the
// connection and never answers fails the open instead of hanging it.
func fetchPrimaryMeta(base string, perAttempt, backoff time.Duration) (ReplicationMetaJSON, error) {
	var meta ReplicationMetaJSON
	var lastErr error
	client := &http.Client{Timeout: perAttempt}
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
		}
		resp, err := client.Get(base + "/v1/replication/meta")
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close() //nolint:errcheck // read side
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
			continue
		}
		if err := json.Unmarshal(body, &meta); err != nil {
			lastErr = err
			continue
		}
		if meta.BootID == "" || meta.Shards < 1 {
			lastErr = fmt.Errorf("malformed meta document")
			continue
		}
		return meta, nil
	}
	return meta, fmt.Errorf("server: primary %s: %v", base, lastErr)
}

// ErrPrimaryHistory refuses a replica whose data directory has no
// REPLICA marker yet holds a journal (either kind of file) or checkpoints:
// a primary wrote them (an ex-primary rejoining after a failover), and what it
// acknowledged past the failover point was never shipped. Resuming on
// top of it would report "caught up" over a store that differs from the
// new primary's; deleting it is the operator's call.
var ErrPrimaryHistory = errors.New("server: data dir holds a primary's history; a replica must start on an empty directory")

// primaryState returns the first piece of durable serving state found
// under dataDir ("" when there is none).
func primaryState(dataDir string) string {
	paths := append([]string{journalPath(dataDir)}, journalTailPaths(dataDir)...)
	for _, p := range append(paths, wal.SnapDirOf(dataDir)) {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return ""
}

// journalTailPaths lists the journal's tail segment files under dataDir.
func journalTailPaths(dataDir string) []string {
	paths, _ := filepath.Glob(filepath.Join(dataDir, "journal-*.log")) // fails only on a malformed pattern
	return paths
}

// wipeShippedState removes everything a follower holds of its primary's
// history: the journal, head and tail, and the checkpoints. The REPLICA
// marker stays.
func wipeShippedState(dataDir string) error {
	for _, p := range append([]string{journalPath(dataDir)}, journalTailPaths(dataDir)...) {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return wipeCheckpoints(dataDir)
}

// prepareReplicaState reconciles the data dir with the primary
// incarnation: same boot ID resumes the shipped state, a different one
// wipes it (sequences may have been renumbered; shipped history can
// only be replaced). The marker is durable before any shipped state, so
// state without a marker is a primary's and is refused
// (ErrPrimaryHistory). Returns this follower's stable stream ID.
func prepareReplicaState(dataDir, bootID string) (string, error) {
	id := ""
	data, err := os.ReadFile(replicaFile(dataDir))
	switch {
	case err == nil:
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) >= 2 {
			id = strings.TrimSpace(lines[1])
			if strings.TrimSpace(lines[0]) == bootID {
				return id, nil
			}
		}
		// Boot ID changed (or the marker is malformed, or a divergence voided
		// it): drop the shipped journal — a stale tail under a fresh head
		// would replay as if it followed it — and the checkpoints, and
		// resync from scratch.
		if err := wipeShippedState(dataDir); err != nil {
			return "", err
		}
	case !os.IsNotExist(err):
		return "", err
	default:
		if p := primaryState(dataDir); p != "" {
			return "", fmt.Errorf("%w (found %s)", ErrPrimaryHistory, p)
		}
	}
	if id == "" {
		id = "replica-" + newBootID()
	}
	return id, writeMarker(replicaFile(dataDir), bootID+"\n"+id+"\n")
}

// writeMarker replaces a marker file of the data dir — REPLICA, FORMAT —
// durably: a temp file, fsynced, renamed over it, the directory fsynced.
// After a power cut the marker is the old one or the new one, whole — and
// in place before the journal and checkpoints written behind it, which a REPLICA
// marker lost behind them would leave looking like a primary's
// (ErrPrimaryHistory), and a lost FORMAT like an earlier version's
// (ErrFormat).
func writeMarker(path, content string) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	_, err = f.WriteString(content)
	if err == nil {
		err = f.Sync()
	}
	if e := f.Close(); err == nil {
		err = e
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// prepareFollower is what a replica does before recovery: fetch its
// primary's rendezvous document and reconcile the data dir with the
// incarnation it names.
func prepareFollower(cfg Config) (*followerState, error) {
	primary := strings.TrimRight(cfg.ReplicaOf, "/")
	meta, err := fetchPrimaryMeta(primary, 5*time.Second, 500*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if meta.Shards != 1 {
		return nil, fmt.Errorf("%w: primary %s runs %d shards", ErrMultiShard, primary, meta.Shards)
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	id, err := prepareReplicaState(cfg.DataDir, meta.BootID)
	if err != nil {
		return nil, err
	}
	return &followerState{primary: primary, id: id, bootID: meta.BootID}, nil
}

// follow makes s the follower fs is, where a primary would start its
// applier: recovery's frontier store stays the live store's only writer,
// and the stream client (Open starts it) applies each record through it.
func (s *Server) follow(fs *followerState, rep replayResult) {
	fs.appliedSeq.Store(int64(rep.maxSeq))
	fs.apply = journalApplier{
		coll: rep.coll, dep: s.cfg.Bundle.CDN,
		serving: func() error { return s.installServing(false) },
		stored:  func(stored []*event.Instance) { s.observeStored(stored) },
	}
	fs.apply.writeTo(rep.st)
	fs.client = &replica.Client{
		URL: func(from int) string {
			return fmt.Sprintf("%s/v1/replication/journal?id=%s&from=%d", fs.primary, url.QueryEscape(fs.id), from)
		},
		From:    func() int { return int(fs.appliedSeq.Load()) },
		Handle:  s.handleJournalMsg,
		OnState: fs.noteState,
	}
	s.follower = fs
	mReplSeq.Set(int64(rep.maxSeq))
}

// checkHello validates the stream's opening frame against the incarnation
// this follower is bound to. Any mismatch is fatal — reconnecting into
// the same primary cannot fix it; the operator restarts the replica,
// which resyncs via prepareReplicaState. (A hello of another protocol
// version never gets here: replica.ParseMsg refuses it.)
func (fs *followerState) checkHello(m replica.Msg) error {
	if m.BootID != fs.bootID {
		return fmt.Errorf("primary boot ID changed (%s -> %s): restart the replica to resync", fs.bootID, m.BootID)
	}
	if m.Stream != replica.StreamJournal {
		return fmt.Errorf("wrong stream kind %q", m.Stream)
	}
	return nil
}

// handleJournalMsg applies one journal-stream message. Runs on the
// client's goroutine — the follower's only writer to the live store, the
// checkpoints and the local journal.
func (s *Server) handleJournalMsg(m replica.Msg) error {
	fs := s.follower
	var err error
	switch m.Type {
	case replica.MsgHello:
		// A new connection starts over whatever checkpoint the last one was
		// in the middle of; a run it cut short stays a temp file, which the
		// next compaction removes.
		if fs.incoming != nil {
			fs.incoming.Close()
		}
		fs.incoming, fs.image = nil, nil
		err = fs.checkHello(m)
	case replica.MsgJournalRec:
		var rolled bool
		rolled, err = s.applyJournalRecord(m.Rec)
		if err == nil && rolled {
			// Behind a roll, as a primary's applier does it, where the store
			// holds exactly the events of the sealed segments: outside
			// dispatchMu, so that no read waits on a checkpoint or an unlink.
			s.checkpoint() //nolint:errcheck // counted in wal.snapshots.failed; the next roll's covers the same
			s.dropJournalSegments()
		}
		fs.noteMsg()
	case replica.MsgSnapBegin:
		if fs.incoming != nil || fs.image != nil {
			err = fmt.Errorf("unexpected checkpoint announcement")
			break
		}
		fs.incoming = wal.NewImageWriter(s.cfg.DataDir, m.Next, m.Size)
	case replica.MsgSnapChunk:
		if fs.incoming == nil {
			err = fmt.Errorf("checkpoint chunk outside a checkpoint")
			break
		}
		_, err = fs.incoming.Write(m.Chunk)
		fs.noteMsg()
	case replica.MsgSnapEnd:
		if fs.incoming == nil {
			err = fmt.Errorf("checkpoint end outside a checkpoint")
			break
		}
		fs.image, fs.incoming = fs.incoming, nil
		err = fs.image.Finish()
	case replica.MsgHeartbeat:
		fs.noteHeartbeat(m)
		s.updateLag(m)
		// What was applied becomes durable at heartbeat cadence, and at
		// every roll: the journal is fsynced.
		err = s.jour.Sync()
	case replica.MsgEOF:
		// The client loop already treats EOF as end-of-connection; seen
		// here only if the primary interleaves it oddly — ignore.
	default:
		err = fmt.Errorf("unexpected message type %d on the journal stream", m.Type)
	}
	if err != nil {
		// Nothing here heals by reconnecting into the same primary.
		return replica.Fatal(err)
	}
	return nil
}

// applyJournalRecord journals one shipped record locally and applies it
// to the live pipeline through the applier crash recovery runs, under
// dispatchMu so reads never see a half-applied batch. A tail segment's
// header is not applied but followed: the local journal rolls where the
// primary's did, and rolled says it did.
func (s *Server) applyJournalRecord(rec []byte) (rolled bool, err error) {
	r, err := wal.ParseJournalRecord(rec)
	if err != nil {
		return false, err
	}
	seq := r.Seq
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	fs := s.follower
	if r.Kind == wal.JournalSegmentKind {
		if seq <= int(fs.appliedSeq.Load()) {
			return false, nil // reconnect overlap: rolled there already
		}
		h, err := wal.ParseJournalSegmentHeader(rec)
		if err != nil {
			return false, err
		}
		return true, s.followRoll(h, rec)
	}
	if fs.image != nil {
		return false, fmt.Errorf("a checkpoint was not followed by a segment header")
	}
	if seq <= int(fs.appliedSeq.Load()) {
		return false, nil // reconnect overlap: already journaled and applied
	}
	// Local journal first: the live store is rebuilt from the journal at
	// boot, so everything applied must be journaled — and a checkpoint
	// covers only segments a roll synced, so it never holds what the
	// journal lacks (a torn tail just re-ships).
	if err := s.jour.AppendNoSync(rec); err != nil {
		return false, err
	}
	if _, err := fs.apply.apply(rec); err != nil {
		return false, err
	}
	s.seq = seq + 1
	fs.appliedSeq.Store(int64(seq))
	mReplApplied.Inc()
	mReplSeq.Set(int64(seq))
	return false, nil
}

// followRoll starts the local journal's next tail segment with the
// primary's header record, verbatim, so that the directory is a primary's
// directory. A header that follows a checkpoint begins behind segments the
// primary dropped: the checkpoint, its runs already in snap/, gets its
// manifest and becomes the live store, read back from it as a restart
// reads it; only then is the local tail replaced — a restart stands on
// that checkpoint — and the records behind the header go through the
// frontier filter like a recovery's. Either way the header says which
// event ID its first record allocates, and the replay must stand exactly
// there — a divergence check at every roll. Callers hold dispatchMu.
func (s *Server) followRoll(h wal.JournalSegmentHeader, raw []byte) error {
	fs := s.follower
	img := fs.image
	replace := img != nil
	if replace {
		if img.Next < h.Front {
			return fmt.Errorf("the checkpoint before journal segment %d reaches event ID %d, not %d", h.FirstSeq, img.Next, h.Front)
		}
		fs.image = nil
		if err := s.ckpt.Install(img, s.st); err != nil {
			return err
		}
		over := newFrontierStore(checkpoint{st: s.st}, s.cfg.Retention)
		over.next = h.FirstID
		fs.apply.writeTo(over)
		// Everything derived from the store's content is derived again.
		s.roll.Reset()
		if s.isFinalized() {
			if err := s.installServing(true); err != nil {
				return err
			}
		}
		mReplCheckpoints.Inc()
	} else if at := fs.apply.st.NextID(); h.FirstID != at {
		// The same records led somewhere else here: the shipped state cannot
		// be extended, only replaced. Void the marker so the restart does.
		fs.voidMarker(s.cfg.DataDir)
		return fmt.Errorf("journal segment %d begins at event ID %d on the primary, this replica's replay stands at %d: restart the replica to resync",
			h.FirstSeq, h.FirstID, at)
	}
	if err := s.jour.Roll(h, raw, replace); err != nil {
		return err
	}
	s.seq = h.FirstSeq
	return nil
}

// voidMarker rewrites the REPLICA marker without its boot ID, so that the
// next open takes the shipped state for another incarnation's and wipes
// it.
func (fs *followerState) voidMarker(dataDir string) {
	writeMarker(replicaFile(dataDir), "\n"+fs.id+"\n") //nolint:errcheck // best effort: the stream stops either way
}

func (fs *followerState) noteMsg() {
	fs.mu.Lock()
	fs.lastMsg = obs.Now()
	fs.mu.Unlock()
}

func (fs *followerState) noteHeartbeat(m replica.Msg) {
	fs.mu.Lock()
	fs.hb = m
	fs.hbAt = obs.Now()
	fs.lastMsg = fs.hbAt
	fs.mu.Unlock()
}

// noteState records stream health transitions (Client.OnState).
func (fs *followerState) noteState(err error) {
	fs.mu.Lock()
	fs.streamErr = err
	fs.mu.Unlock()
}

// updateLag refreshes the follower lag gauges from a heartbeat: bytes of
// journal not yet shipped, events the primary holds that are not applied
// here. Runs on the client's goroutine, the replay's only writer.
func (s *Server) updateLag(hb replica.Msg) {
	mReplLagBytes.Set(max(hb.JournalBytes-s.jour.Offset(), 0))
	mReplLagRecs.Set(int64(max(hb.WALNext-s.follower.apply.st.NextID(), 0)))
}

// sealFollower stops the stream client and closes the journal; after it
// returns no goroutine touches follower disk state. Sealing for a
// promotion closes it the way a primary's shutdown does: the node is a
// primary from here on, so it rolls where it stands and checkpoints, and
// the reopen stands on that checkpoint. Idempotent (sealOnce: the first
// caller decides); called by Promote and Shutdown.
func (s *Server) sealFollower(promote bool) error {
	fs := s.follower
	fs.sealOnce.Do(func() {
		fs.client.Stop()
		fs.client.Wait()
		s.nextID = fs.apply.st.NextID() // the roll's header: where the replay stands
		fs.sealErr = s.closeJournal(promote && s.isFinalized())
	})
	return fs.sealErr
}

// Promote turns this replica into a primary: seal the stream, then reopen
// the data directory exactly as a restarting primary would. The seal's
// checkpoint holds everything applied, so the reopen verifies the retained
// journal tail against it and applies nothing — the promoted store equals
// a clean single-node replay of the same journal. The promoted server
// takes over request handling atomically; this server's handler delegates
// to it from then on.
func (s *Server) Promote() (PromoteInfo, error) {
	fs := s.follower
	if fs == nil {
		return PromoteInfo{}, fmt.Errorf("server: not a replica")
	}
	// Promotion runs exactly once; concurrent callers block on the Once
	// and share the stored outcome (a failed promotion is sticky — the
	// local state is suspect, restart the process to retry). No lock is
	// held across the reopen.
	fs.promoting.Store(true)
	fs.promoteOnce.Do(func() { fs.promoteInfo, fs.promoteErr = s.promote() })
	return fs.promoteInfo, fs.promoteErr
}

func (s *Server) promote() (PromoteInfo, error) {
	fs := s.follower
	if err := s.sealFollower(true); err != nil {
		return PromoteInfo{}, err
	}
	if err := os.Remove(replicaFile(s.cfg.DataDir)); err != nil && !os.IsNotExist(err) {
		return PromoteInfo{}, err
	}
	cfg := s.cfg
	cfg.ReplicaOf = ""
	ps, err := Open(cfg)
	if err != nil {
		return PromoteInfo{}, fmt.Errorf("reopening as primary: %v", err)
	}
	info := PromoteInfo{
		Role:       "primary",
		BootID:     ps.bootID,
		AppliedSeq: int(fs.appliedSeq.Load()),
		Recovery:   ps.Recovery(),
		Digest:     wal.StoreDigest(ps.st),
	}
	node := &promotedNode{srv: ps, h: ps.Handler(), info: info}
	s.promoted.Store(node)
	return info, nil
}

// shutdownFollower is Shutdown's replica path: seal the stream, close
// the processor, and shut the promoted primary down if one exists.
func (s *Server) shutdownFollower(ctx context.Context, err error) error {
	fs := s.follower
	if fs.promoting.Load() {
		// Wait out an in-flight promotion so the promoted server below
		// is visible for shutdown; the empty Do blocks until it returns.
		fs.promoteOnce.Do(func() {})
	}
	if e := s.sealFollower(false); e != nil && err == nil {
		err = e
	}
	s.serving.Load().close()
	if node := s.promoted.Load(); node != nil {
		if e := node.srv.Shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// status renders /v1/replication/status for a replica.
func (fs *followerState) status(s *Server) ReplicationStatusJSON {
	fs.mu.Lock()
	hb, hbAt, lastMsg, serr := fs.hb, fs.hbAt, fs.lastMsg, fs.streamErr
	fs.mu.Unlock()
	if node := s.promoted.Load(); node != nil {
		// Promoted: report the new primary's identity through the old path.
		return ReplicationStatusJSON{Role: "primary", BootID: node.info.BootID}
	}
	s.dispatchMu.Lock() // held by the stream apply, which moves the replay
	next := fs.apply.st.NextID()
	s.dispatchMu.Unlock()
	applied := int(fs.appliedSeq.Load())
	st := ReplicationStatusJSON{
		Role:       "replica",
		BootID:     fs.bootID,
		Primary:    fs.primary,
		AppliedSeq: &applied,
	}
	if serr != nil {
		st.StreamError = serr.Error()
	}
	if !lastMsg.IsZero() {
		st.LagSeconds = obs.Since(lastMsg).Seconds()
	}
	if !hbAt.IsZero() {
		sealed := hb.Sealed
		st.PrimarySealed = &sealed
	}
	local := s.jour.Offset()
	st.ShardLag = []ReplicaShardLag{{
		JournalBytes:    local,
		PrimaryJournal:  hb.JournalBytes,
		LagBytes:        max(hb.JournalBytes-local, 0),
		WALNext:         next,
		PrimaryWALNext:  hb.WALNext,
		WALLag:          max(hb.WALNext-next, 0),
		SnapBootstraps:  int(mReplCheckpoints.Value()),
		StreamConnected: serr == nil && !lastMsg.IsZero(),
	}}
	return st
}
