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

	"grca/internal/conf"
	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/replica"
	"grca/internal/store"
	"grca/internal/wal"
)

var mReplCheckpoints = obs.GetCounter("replica.follower.checkpoints.loaded")

// followerState is the replica-only half of a Server: the stream
// clients, the per-shard WAL sinks, and the lag bookkeeping. The live
// store is what crash recovery builds — checkpoints with the journal
// applied over them — and apply is the same journalApplier over it with
// the serving hooks attached: the follower IS a recovery that never stops
// replaying.
type followerState struct {
	primary string // primary base URL, no trailing slash
	id      string // stable follower stream ID (REPLICA file)
	bootID  string // primary incarnation being replicated

	apply   journalApplier
	sinks   []*replica.WALSink
	clients []*replica.Client

	appliedSeq atomic.Int64 // last journal sequence applied (and locally journaled)
	walNext    []atomic.Int64

	// images collects the store checkpoints the journal stream sends ahead
	// of a tail segment whose predecessors the primary has dropped — one
	// per shard, image the one arriving; that segment's header record makes
	// them the live store. Only the journal client's goroutine touches them.
	images []*shardImage
	image  *incomingImage

	// sealed means the clients are stopped and the local journal and
	// sinks are closed; sealOnce makes the seal idempotent between
	// Promote and Shutdown, and promoteOnce serializes promotion without
	// holding any lock across the reopen (which acquires the whole
	// pipeline's lock set — a mutex here would nest above all of them).
	sealed      atomic.Bool
	sealOnce    sync.Once
	sealErr     error
	promoting   atomic.Bool
	promoteOnce sync.Once
	promoteInfo PromoteInfo
	promoteErr  error

	mu        sync.Mutex
	hb        replica.Msg // last heartbeat, any stream
	hbAt      time.Time
	lastMsg   time.Time
	streamErr error
	snapBoots []int
}

// shardImage is one shard's decoded checkpoint: store.Memory.Replace's
// arguments.
type shardImage struct {
	base, next int
	ins        []event.Instance
}

// incomingImage is a checkpoint between its MsgSnapBegin and MsgSnapEnd.
type incomingImage struct {
	shard, next int
	size        int64
	dec         wal.ImageDecoder
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
	// Recovery is the reopen's report: how much of the shipped journal's
	// tail the shipped WAL state already held (TailVerified) or lacked
	// (TailApplied), and whether a shard had to be refilled (WALRebuilt).
	Recovery RecoveryInfo `json:"recovery"`
	// Digests are the promoted store's per-shard digests.
	Digests []string `json:"digests"`
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
// REPLICA marker yet holds a journal (either kind of file), WAL or snapshots: a primary wrote
// them (an ex-primary rejoining after a failover), and what it
// acknowledged past the failover point was never shipped. Resuming on
// top of it would report "caught up" over a store that differs from the
// new primary's; deleting it is the operator's call.
var ErrPrimaryHistory = errors.New("server: data dir holds a primary's history; a replica must start on an empty directory")

// primaryState returns the first piece of durable serving state found
// under dataDir ("" when there is none).
func primaryState(dataDir string, n int) string {
	paths := append([]string{journalPath(dataDir)}, journalTailPaths(dataDir)...)
	for i := 0; i < n; i++ {
		dir := shardDir(dataDir, n, i)
		paths = append(paths, wal.WALDirOf(dir), wal.SnapDirOf(dir))
	}
	for _, p := range paths {
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

// wipeShippedState removes everything a primary shipped into dataDir: the
// journal, head and tail, and every shard's WAL and snapshots. The REPLICA
// marker stays.
func wipeShippedState(dataDir string, n int) error {
	for _, p := range append([]string{journalPath(dataDir)}, journalTailPaths(dataDir)...) {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if err := wipeShardState(dataDir, n, i); err != nil {
			return err
		}
	}
	return nil
}

// prepareReplicaState reconciles the data dir with the primary
// incarnation: same boot ID resumes the shipped state, a different one
// wipes it (sequences may have been renumbered; shipped history can
// only be replaced). The marker is written before any shipped state, so
// state without a marker is a primary's and is refused
// (ErrPrimaryHistory). Returns this follower's stable stream ID.
func prepareReplicaState(dataDir string, n int, bootID string) (string, error) {
	path := replicaFile(dataDir)
	id := ""
	data, err := os.ReadFile(path)
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
		// would replay as if it followed it — and every shard's WAL and
		// snapshot state, and resync from scratch.
		if err := wipeShippedState(dataDir, n); err != nil {
			return "", err
		}
	case !os.IsNotExist(err):
		return "", err
	default:
		if p := primaryState(dataDir, n); p != "" {
			return "", fmt.Errorf("%w (found %s)", ErrPrimaryHistory, p)
		}
	}
	if id == "" {
		id = "replica-" + newBootID()
	}
	if err := os.WriteFile(path, []byte(bootID+"\n"+id+"\n"), 0o644); err != nil {
		return "", err
	}
	return id, nil
}

// openFollower opens the service as a live read replica: replay the
// locally shipped journal exactly as crash recovery would, then keep
// applying the primary's journal stream through the same path
// while per-shard WAL streams materialize segment state on disk for a
// later promotion.
func openFollower(cfg Config) (*Server, error) {
	n := cfg.Shards
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	primary := strings.TrimRight(cfg.ReplicaOf, "/")
	meta, err := fetchPrimaryMeta(primary, 5*time.Second, 500*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if meta.Shards != n {
		return nil, fmt.Errorf("server: primary %s runs %d shards, replica configured with %d", primary, meta.Shards, n)
	}
	id, err := prepareReplicaState(cfg.DataDir, n, meta.BootID)
	if err != nil {
		return nil, err
	}
	if err := checkShardMarker(cfg.DataDir, n); err != nil {
		return nil, err
	}
	topo, err := conf.Parse(cfg.Bundle.Configs, cfg.Bundle.Inventory)
	if err != nil {
		return nil, fmt.Errorf("server: config archive: %v", err)
	}
	// Recover the live store from the shipped state, as a primary would
	// from its own: the shipped journal over empty checkpoints while it
	// reaches back to ID 0, over what the WAL sinks hold once it begins
	// behind a checkpoint the primary sent. Shipped state that does not
	// add up — the sinks trail that checkpoint, or disagree with the
	// journal — is not repaired but replaced: wipe it and bootstrap anew.
	var rep replayResult
	var tail []wal.JournalSegment
	for attempt := 0; ; attempt++ {
		tail, err = wal.RecoverJournalTail(cfg.DataDir)
		if err == nil {
			rep, _, err = recoverJournal(cfg, topo, tail, func() []checkpoint { return shippedCheckpoints(cfg, tail) })
		}
		if err == nil || attempt > 0 || !(errors.Is(err, ErrCheckpointLost) || errors.Is(err, ErrCheckpointDiverged)) {
			break
		}
		if err := wipeShippedState(cfg.DataDir, n); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}

	fs := &followerState{
		primary:   primary,
		id:        id,
		bootID:    meta.BootID,
		sinks:     make([]*replica.WALSink, n),
		walNext:   make([]atomic.Int64, n),
		snapBoots: make([]int, n),
	}
	fs.appliedSeq.Store(int64(rep.maxSeq))

	// Shard entries carry only the live store shard; there is no WAL,
	// queue, or applier — the journal stream's apply goroutine is the only
	// writer.
	jour, err := wal.OpenSegmentedJournal(cfg.DataDir, tail)
	if err != nil {
		return nil, err
	}
	shards := make([]*shard, n)
	opened := false
	defer func() {
		if opened {
			return
		}
		jour.Close() //nolint:errcheck // being discarded
		for _, sk := range fs.sinks {
			if sk != nil {
				sk.Close() //nolint:errcheck // being discarded
			}
		}
	}()
	for i := range shards {
		dir := shardDir(cfg.DataDir, n, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		shards[i] = &shard{st: rep.st.Shard(i), idx: i}
		sink, err := replica.OpenWALSink(dir, 0)
		if err != nil {
			return nil, err
		}
		fs.sinks[i] = sink
		fs.walNext[i].Store(int64(sink.Frontier()))
	}

	s, err := newServer(cfg, topo, rep, shards, jour)
	if err != nil {
		return nil, err
	}
	s.follower = fs
	fs.apply = journalApplier{
		coll: rep.coll, st: rep.st, dep: cfg.Bundle.CDN,
		serving: func() error { return s.installServing(false) },
		stored:  func(stored []*event.Instance) { s.observeStored(stored) },
	}
	mReplSeq.Set(int64(rep.maxSeq))
	opened = true
	s.startFollowerClients()
	return s, nil
}

// shippedCheckpoints are a restarting follower's checkpoints: empty ones
// while its journal reaches back to ID 0 — the journal then rebuilds the
// store by itself, as it always did — and otherwise what each shard's WAL
// sink was shipped, read without opening it for appends. One that cannot
// be read says so in its err.
func shippedCheckpoints(cfg Config, tail []wal.JournalSegment) []checkpoint {
	n := cfg.Shards
	cps := make([]checkpoint, n)
	whole := len(tail) == 0 || tail[0].Header.Offset == wal.JournalSize(journalPath(cfg.DataDir))
	var wg sync.WaitGroup
	for i := range cps {
		if whole {
			cps[i].st = store.New()
			cps[i].st.SetRetention(cfg.Retention)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cps[i].st, cps[i].rec, cps[i].err = wal.ReadCheckpoint(shardDir(cfg.DataDir, n, i), wal.Options{Retention: cfg.Retention})
		}(i)
	}
	wg.Wait()
	return cps
}

// startFollowerClients launches the journal stream client and one WAL
// stream client per shard.
func (s *Server) startFollowerClients() {
	fs := s.follower
	jc := &replica.Client{
		URL: func(from int) string {
			return fmt.Sprintf("%s/v1/replication/journal?id=%s&from=%d",
				fs.primary, url.QueryEscape(fs.id), from)
		},
		From:    func() int { return int(fs.appliedSeq.Load()) },
		Handle:  s.handleJournalMsg,
		OnState: fs.noteState,
	}
	fs.clients = append(fs.clients, jc)
	for i := range s.shards {
		shard := i
		sink := fs.sinks[i]
		wc := &replica.Client{
			URL: func(from int) string {
				return fmt.Sprintf("%s/v1/replication/wal?id=%s&shard=%d&from=%d",
					fs.primary, url.QueryEscape(fs.id), shard, from)
			},
			From:    sink.Frontier,
			Handle:  func(m replica.Msg) error { return s.handleWALMsg(shard, m) },
			OnState: fs.noteState,
		}
		fs.clients = append(fs.clients, wc)
	}
	for _, c := range fs.clients {
		c.Start()
	}
}

// checkHello validates a stream's opening frame against the incarnation
// this follower is bound to. Any mismatch is fatal — reconnecting into
// the same primary cannot fix it; the operator restarts the replica,
// which resyncs via prepareReplicaState.
func (fs *followerState) checkHello(m replica.Msg, stream byte, shards int) error {
	if m.Ver != replica.ProtocolVersion {
		return fmt.Errorf("primary speaks protocol %d, this replica %d", m.Ver, replica.ProtocolVersion)
	}
	if m.BootID != fs.bootID {
		return fmt.Errorf("primary boot ID changed (%s -> %s): restart the replica to resync", fs.bootID, m.BootID)
	}
	if m.Shards != shards {
		return fmt.Errorf("primary reports %d shards, replica runs %d", m.Shards, shards)
	}
	if m.Stream != stream {
		return fmt.Errorf("wrong stream kind %q", m.Stream)
	}
	return nil
}

// handleJournalMsg applies one journal-stream message. Runs on the
// journal client's goroutine — the follower's only writer to the live
// store and the local journal.
func (s *Server) handleJournalMsg(m replica.Msg) error {
	fs := s.follower
	var err error
	switch m.Type {
	case replica.MsgHello:
		// A new connection starts over whatever checkpoint the last one was
		// in the middle of.
		fs.images, fs.image = nil, nil
		err = fs.checkHello(m, replica.StreamJournal, len(s.shards))
	case replica.MsgJournalRec:
		err = s.applyJournalRecord(m.Rec)
		fs.noteMsg()
	case replica.MsgSnapBegin:
		if m.Shard >= len(s.shards) || fs.image != nil {
			err = fmt.Errorf("unexpected checkpoint announcement for shard %d", m.Shard)
			break
		}
		fs.image = &incomingImage{shard: m.Shard, next: m.Next, size: m.Size}
	case replica.MsgSnapChunk:
		if fs.image == nil {
			err = fmt.Errorf("checkpoint chunk outside a checkpoint")
			break
		}
		fs.image.size -= int64(len(m.Chunk))
		_, err = fs.image.dec.Write(m.Chunk)
		fs.noteMsg()
	case replica.MsgSnapEnd:
		err = fs.endImage(len(s.shards))
	case replica.MsgHeartbeat:
		fs.noteHeartbeat(m)
		s.updateLag(m)
		s.syncFollowerJournal()
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

// endImage closes the checkpoint being received: the bytes announced, the
// bound announced, decoded whole. A size of zero is the empty checkpoint
// of a shard that has no snapshot.
func (fs *followerState) endImage(shards int) error {
	in := fs.image
	fs.image = nil
	if in == nil {
		return fmt.Errorf("checkpoint end outside a checkpoint")
	}
	img := &shardImage{}
	if in.next != 0 || in.size != 0 {
		if in.size != 0 {
			return fmt.Errorf("checkpoint of shard %d is %d bytes off its announced size", in.shard, -in.size)
		}
		var err error
		if img.base, img.next, img.ins, err = in.dec.Finish(); err != nil {
			return err
		}
		if img.next != in.next {
			return fmt.Errorf("checkpoint of shard %d covers IDs below %d, announced %d", in.shard, img.next, in.next)
		}
	}
	if fs.images == nil {
		fs.images = make([]*shardImage, shards)
	}
	fs.images[in.shard] = img
	return nil
}

// applyJournalRecord journals one shipped record locally and applies it
// to the live pipeline through the applier crash recovery runs, under
// dispatchMu so reads never see a half-applied batch. A tail segment's
// header is not applied but followed: the local journal rolls where the
// primary's did.
func (s *Server) applyJournalRecord(rec []byte) error {
	h, isHeader, err := segmentHeader(rec)
	if err != nil {
		return err
	}
	seq, err := replica.JournalSeq(rec)
	if err != nil {
		return err
	}
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	fs := s.follower
	if isHeader {
		if h.FirstSeq <= int(fs.appliedSeq.Load()) {
			return nil // reconnect overlap: rolled there already
		}
		return s.followRoll(h, rec)
	}
	if fs.images != nil {
		return fmt.Errorf("checkpoints were not followed by a segment header")
	}
	if seq <= int(fs.appliedSeq.Load()) {
		return nil // reconnect overlap: already journaled and applied
	}
	// Local journal first: the live store is rebuilt from the journal at
	// boot, so everything applied must be journaled (durability is async;
	// a torn tail just re-ships).
	if err := s.jour.AppendNoSync(rec); err != nil {
		return err
	}
	if _, err := fs.apply.apply(rec); err != nil {
		return err
	}
	s.seq = seq + 1
	fs.appliedSeq.Store(int64(seq))
	mReplApplied.Inc()
	mReplSeq.Set(int64(seq))
	return nil
}

// followRoll starts the local journal's next tail segment with the
// primary's header record, verbatim, so that the directory is a primary's
// directory. A header that follows checkpoints begins behind segments the
// primary dropped: the checkpoints become the live store, the local tail
// is replaced, and the records behind the header go through the frontier
// filter like a recovery's. Either way the header says which event ID its
// first record allocates, and the replay must stand exactly there — a
// divergence check at every roll. Callers hold dispatchMu.
func (s *Server) followRoll(h wal.JournalSegmentHeader, raw []byte) error {
	fs := s.follower
	n := len(s.shards)
	if len(h.Fronts) != n {
		return fmt.Errorf("segment header for %d shards, this replica runs %d", len(h.Fronts), n)
	}
	replace := fs.images != nil
	if replace {
		for i, img := range fs.images {
			if img == nil || img.next < h.Fronts[i] {
				return fmt.Errorf("no checkpoint of shard %d reaching event ID %d came before journal segment %d", i, h.Fronts[i], h.FirstSeq)
			}
		}
		for i, img := range fs.images {
			if err := s.shards[i].st.Replace(img.base, img.next, img.ins); err != nil {
				return err
			}
		}
		fs.images = nil
		s.st.SetNext(h.FirstID)
		fs.apply.st = newFrontierStore(s.st, nil, s.cfg.Retention)
		// Everything derived from the store's content is derived again.
		s.roll.Reset()
		s.roll.SeedEvents(s.st)
		if s.isFinalized() {
			if err := s.installServing(true); err != nil {
				return err
			}
		}
		mReplCheckpoints.Inc()
	} else if h.FirstID != s.st.NextID() {
		// The same records led somewhere else here: the shipped state cannot
		// be extended, only replaced. Void the marker so the restart does.
		fs.voidMarker(s.cfg.DataDir)
		return fmt.Errorf("journal segment %d begins at event ID %d on the primary, this replica's replay stands at %d: restart the replica to resync",
			h.FirstSeq, h.FirstID, s.st.NextID())
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
	os.WriteFile(replicaFile(dataDir), []byte("\n"+fs.id+"\n"), 0o644) //nolint:errcheck // best effort: the stream stops either way
}

// handleWALMsg feeds one WAL-stream message into shard's sink. Runs on
// that shard's WAL client goroutine — the sink's only user.
func (s *Server) handleWALMsg(shard int, m replica.Msg) error {
	fs := s.follower
	sink := fs.sinks[shard]
	var err error
	switch m.Type {
	case replica.MsgHello:
		if e := fs.checkHello(m, replica.StreamWAL, len(s.shards)); e != nil {
			return replica.Fatal(e)
		}
	case replica.MsgWALRec:
		err = sink.WriteRecord(m.Rec)
	case replica.MsgSnapBegin:
		err = sink.BeginSnapshot(m.Next, m.Size)
		if err == nil {
			fs.mu.Lock()
			fs.snapBoots[shard]++
			fs.mu.Unlock()
		}
	case replica.MsgSnapChunk:
		err = sink.WriteSnapshotChunk(m.Chunk)
	case replica.MsgSnapEnd:
		err = sink.EndSnapshot()
	case replica.MsgHeartbeat:
		fs.noteHeartbeat(m)
		err = sink.Sync()
	case replica.MsgEOF:
	default:
		return replica.Fatal(fmt.Errorf("unexpected message type %d on the WAL stream", m.Type))
	}
	if err != nil {
		// Sink failures (disk, protocol misuse) do not heal by reconnecting.
		return replica.Fatal(err)
	}
	fs.walNext[shard].Store(int64(sink.Frontier()))
	fs.noteMsg()
	return nil
}

func (fs *followerState) noteMsg() {
	fs.mu.Lock()
	fs.lastMsg = obs.Now()
	fs.mu.Unlock()
}

func (fs *followerState) noteHeartbeat(m replica.Msg) {
	fs.mu.Lock()
	fs.hb = m // JournalBytes/WALNext are fresh allocations, safe to retain
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
// journal not yet shipped, WAL records not yet sunk.
func (s *Server) updateLag(hb replica.Msg) {
	fs := s.follower
	mReplLagBytes.Set(max(hb.JournalBytes-s.jour.Offset(), 0))
	var lagRecs int64
	for i := range s.shards {
		if i >= len(hb.WALNext) {
			break
		}
		if d := int64(hb.WALNext[i]) - fs.walNext[i].Load(); d > 0 {
			lagRecs += d
		}
	}
	mReplLagRecs.Set(lagRecs)
}

// syncFollowerJournal fsyncs the local journal at heartbeat cadence
// (shipped records are written without fsync on the apply path).
func (s *Server) syncFollowerJournal() {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	if s.follower.isSealed() {
		return
	}
	s.jour.Sync() //nolint:errcheck // advisory; the apply path surfaces real write errors
}

func (fs *followerState) isSealed() bool { return fs.sealed.Load() }

// sealFollower stops the stream clients and closes the local journal
// and sinks; after it returns no goroutine touches follower disk state.
// Idempotent (sealOnce); called by Promote and Shutdown.
func (s *Server) sealFollower() error {
	fs := s.follower
	fs.sealOnce.Do(func() {
		for _, c := range fs.clients {
			c.Stop()
		}
		for _, c := range fs.clients {
			c.Wait()
		}
		s.dispatchMu.Lock() // exclude a final in-flight apply's journal write
		fs.sealed.Store(true)
		err := s.jour.Sync()
		if e := s.jour.Close(); e != nil && err == nil {
			err = e
		}
		s.dispatchMu.Unlock()
		for _, sk := range fs.sinks {
			if e := sk.Close(); e != nil && err == nil {
				err = e
			}
		}
		fs.sealErr = err
	})
	return fs.sealErr
}

// Promote turns this replica into a primary: seal the streams, then
// reopen the data directory exactly as a restarting primary would. The
// reopen's checkpoint + tail recovery is the promotion's verification —
// every event the shipped WAL state and the shipped journal both hold is
// checked against the other, what the WAL streams had not delivered is
// added from the journal, and a shard that disagrees is refilled from it
// (or, behind a checkpoint bootstrap, refused) — so the promoted store
// equals a clean single-node replay of the same journal.
// The promoted server takes over request handling atomically; this
// server's handler delegates to it from then on.
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
	if err := s.sealFollower(); err != nil {
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
	}
	for _, sh := range ps.shards {
		info.Digests = append(info.Digests, wal.StoreDigest(sh.st))
	}
	node := &promotedNode{srv: ps, h: ps.Handler(), info: info}
	s.promoted.Store(node)
	return info, nil
}

// shutdownFollower is Shutdown's replica path: seal the streams, close
// the processors, and shut the promoted primary down if one exists.
func (s *Server) shutdownFollower(ctx context.Context, err error) error {
	fs := s.follower
	if fs.promoting.Load() {
		// Wait out an in-flight promotion so the promoted server below
		// is visible for shutdown; the empty Do blocks until it returns.
		fs.promoteOnce.Do(func() {})
	}
	if e := s.sealFollower(); e != nil && err == nil {
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
	snapBoots := append([]int(nil), fs.snapBoots...)
	fs.mu.Unlock()
	applied := int(fs.appliedSeq.Load())
	st := ReplicationStatusJSON{
		Role:       "replica",
		BootID:     fs.bootID,
		Shards:     len(s.shards),
		Primary:    fs.primary,
		AppliedSeq: &applied,
	}
	if node := s.promoted.Load(); node != nil {
		// Promoted: report the new primary's identity through the old path.
		return ReplicationStatusJSON{
			Role:   "primary",
			BootID: node.info.BootID,
			Shards: len(s.shards),
		}
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
	for i := range s.shards {
		lag := ReplicaShardLag{
			Shard:           i,
			JournalBytes:    local,
			PrimaryJournal:  hb.JournalBytes,
			LagBytes:        max(hb.JournalBytes-local, 0),
			WALNext:         int(fs.walNext[i].Load()),
			SnapBootstraps:  snapBoots[i],
			StreamConnected: serr == nil && !lastMsg.IsZero(),
		}
		if i < len(hb.WALNext) {
			lag.PrimaryWALNext = hb.WALNext[i]
			if d := lag.PrimaryWALNext - lag.WALNext; d > 0 {
				lag.WALLag = d
			}
		}
		st.ShardLag = append(st.ShardLag, lag)
	}
	return st
}
