// Package server turns the G-RCA pipeline into a durable, network-facing
// diagnosis service: the paper's platform ran as a shared system that
// applications fed continuously and queried on demand (§II), and this
// package is that shape — an HTTP/JSON API over a WAL-backed event store.
//
// # Durability model
//
// The store is split into N independent shards (Config.Shards), each a
// lane of the write path with its own lock, WAL segment directory,
// snapshot directory, and applier goroutine. Two kinds of append-only
// structure carry the state:
//
//   - The event WAL (internal/wal), one per shard: every normalized
//     instance added to the shard, with snapshots and compaction. It
//     recovers the shard byte-identically and fast.
//   - The ingest journal, one per data dir: accepted ingest batches —
//     raw feed lines or normalized-event bodies — plus the finalize
//     marker, each prefixed with the batch's dispatch sequence number.
//     Lane 0 is its only appender, so file order is dispatch order.
//     <data-dir>/journal.log is segment 0, everything through finalize:
//     the collector's parse state (routing simulations, pairing buffers,
//     rolling baselines) is a function of raw input, not of normalized
//     events, so restart recovery replays it through a fresh collector,
//     and it is never dropped. What follows finalize is store input
//     only; it goes to tail segments (journal-<firstSeq>.log), which are
//     unlinked once every shard's snapshots hold their events.
//
// A batch's journal append (fsynced) is its commit point; the per-shard
// WAL commits follow it, so a WAL never holds what the journal does not.
// Startup is newest readable checkpoint + journal tail (recovery.go):
// every shard's WAL is opened while segment 0 replays into a scratch
// store, then the head's events and the retained tail go through a
// per-shard frontier — an event the shard's WAL holds is verified
// against it and skipped, one it lacks (a crash between journal fsync and
// WAL commit, -fsync=interval's window) is added through the WAL. A lost
// or disagreeing shard is refilled from an empty checkpoint while the
// journal still reaches back to ID 0, and refused with a named error
// once its tail has been dropped (DESIGN.md §11, §15).
//
// # Pipeline
//
// HTTP handlers dispatch batches under a single admission lock that
// assigns the global sequence number and a dense block of event IDs,
// splits the batch by each event's shard (a hash of its location), and
// enqueues each sub-batch onto its shard's bounded queue — when an
// involved queue is full the handler answers 429 with a depth-derived
// Retry-After instead of buffering, before any ID is allocated, so memory stays
// bounded and IDs stay dense under overload. Per-shard applier
// goroutines drain their queues in commit groups (on lane 0 the journal
// fsync, then on every lane store inserts and a WAL commit — each
// amortized across every batch waiting), and
// a single finisher goroutine joins the shards' completions back into
// sequence order to run the streaming processors and reply — so
// responses are byte-identical for every shard count. Reads (diagnose,
// events, stats) bypass the queues and scatter-gather the shards.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/apps"
	"grca/internal/apps/cdn"
	"grca/internal/collector"
	"grca/internal/conf"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netmodel"
	"grca/internal/netstate"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/replica"
	"grca/internal/rollup"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

var (
	mBatches    = obs.GetCounter("server.ingest.batches")
	mEvents     = obs.GetCounter("server.ingest.events")
	mRejected   = obs.GetCounter("server.http.429")
	mQueueDepth = obs.GetGauge("server.queue.depth")
	mRecovered  = obs.GetCounter("server.recovery.batches")
	mRebuilt    = obs.GetCounter("server.recovery.wal.rebuilt")
	mTailRecs   = obs.GetCounter("server.recovery.tail.records")
)

// Journal record kinds. A record is uvarint seq | kind |
// uvarint len(source) | source | body: raw feed lines for recFeed, the
// JSON event array for recEvents, a wire.KindEvents batch (verbatim
// request bytes) for recEventsWire, empty for recFinalize. seq is the
// batch's dispatch sequence; it ascends through the file and is the
// replication stream's resume cursor.
const (
	recFeed       = 1
	recFinalize   = 2
	recEvents     = 3
	recEventsWire = 4
)

func encodeRecord(seq int, kind byte, source string, body []byte) []byte {
	out := make([]byte, 0, 10+1+10+len(source)+len(body))
	out = binary.AppendUvarint(out, uint64(seq))
	out = append(out, kind)
	out = binary.AppendUvarint(out, uint64(len(source)))
	out = append(out, source...)
	return append(out, body...)
}

func decodeJournalRecord(p []byte) (seq int, kind byte, source string, body []byte, err error) {
	sq, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, 0, "", nil, fmt.Errorf("server: truncated journal record seq")
	}
	p = p[sz:]
	if len(p) < 1 {
		return 0, 0, "", nil, fmt.Errorf("server: empty journal record")
	}
	kind, p = p[0], p[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return 0, 0, "", nil, fmt.Errorf("server: truncated journal record source")
	}
	return int(sq), kind, string(p[sz : sz+int(n)]), p[sz+int(n):], nil
}

// knownSources mirrors the collector's feed switch so an unknown source
// is rejected before it is journaled.
var knownSources = map[string]bool{
	collector.SourceOSPFMon: true, collector.SourceBGPMon: true,
	collector.SourceSyslog: true, collector.SourceSNMP: true,
	collector.SourceTACACS: true, collector.SourceWorkflow: true,
	collector.SourceLayer1: true, collector.SourcePerfMon: true,
	collector.SourceKeynote: true, collector.SourceServer: true,
}

func knownSource(s string) bool { return knownSources[s] }

// maxEventDuration bounds a single event's run time when deriving each
// application's streaming grace period; 15 minutes matches the
// collector's flap-aggregation window (and cmd/grca stats).
const maxEventDuration = 15 * time.Minute

// Config configures Open.
type Config struct {
	// DataDir holds the ingest journal (journal.log and its tail segments
	// journal-<firstSeq>.log) and the WAL and snapshots — the latter two
	// per shard, under shard-<i>/ when Shards > 1.
	DataDir string
	// Bundle supplies the configuration archive and manifest (collection
	// window, CDN deployment). Its Feeds are ignored — feeds arrive over
	// HTTP.
	Bundle platform.Bundle
	// Shards is the number of independent store/WAL lanes the
	// ingest path commits through (default 1). A data directory is bound
	// to its shard count at creation; reopening with a different count is
	// refused.
	Shards int
	// Fsync is the WAL durability policy (default batch). The ingest
	// journal always fsyncs per commit group; this tunes only the event
	// WAL.
	Fsync wal.FsyncPolicy
	// FsyncInterval is the WAL background sync period under interval
	// policy.
	FsyncInterval time.Duration
	// SnapshotEvery auto-snapshots a shard after that many WAL records.
	SnapshotEvery int
	// Retention, when positive, evicts events older than this behind each
	// shard's moving window; eviction triggers a snapshot, snapshots let
	// WAL segments be compacted and journal tail segments be dropped, so
	// disk follows the events retained (plus journal.log, the feed phase's
	// record, which is kept whole).
	Retention time.Duration
	// MaxInflight bounds each shard's ingest queue (default 64 batches);
	// when an involved shard's queue is full, ingest answers 429.
	MaxInflight int
	// RequestTimeout bounds one request's wait for the commit pipeline
	// (default 60s).
	RequestTimeout time.Duration
	// Debug mounts the expvar/pprof debug handlers under /debug/ on the
	// main API address — the single-port deployment; a dedicated metrics
	// listener (obs.ServeDebug) is the alternative.
	Debug bool
	// ReplicaOf, when set, opens this node as a live read replica of the
	// primary at that base URL (e.g. http://host:9090): it bootstraps
	// from the primary's replication streams, serves the read API
	// continuously, and redirects writes there. POST
	// /v1/replication/promote turns it into a primary.
	ReplicaOf string

	// legacyParsers runs the collector's reference string parsers instead
	// of the zero-copy fast path: the parity tests' reference server.
	legacyParsers bool
}

func (c *Config) defaults() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
}

// task is one validated ingest request handed to the dispatcher.
type task struct {
	kind   byte
	source string
	lines  []byte
	events []event.Instance
	raw    []byte // journal body for recEvents/recEventsWire
}

type taskResult struct {
	status     int
	resp       IngestResponse
	err        error
	retryAfter int // seconds, set on 429
}

// shard is one lane of the parallel commit pipeline: a store shard, its
// WAL, and the bounded queue its applier goroutine drains.
type shard struct {
	idx   int
	st    *store.Memory
	log   *wal.Log
	queue chan shardTask
	done  chan struct{}
}

// Server is an open diagnosis service.
type Server struct {
	cfg    Config
	topo   *netmodel.Topology
	shards []*shard
	st     *store.Sharded
	coll   *collector.Collector

	// dispatchMu serializes batch admission: sequence numbering, ID block
	// allocation, the split by shard, and queue placement. Feeds and
	// finalize apply inline under it (they read and mutate collector
	// state), so it also serializes every collector write.
	dispatchMu sync.Mutex
	seq        int

	// jour is the ingest journal. A primary appends to it — and rolls it
	// to a new tail segment, and drops the segments the snapshots cover —
	// from lane 0's applier (event batches) and, with every lane quiesced
	// behind a barrier, from admission (feeds, finalize); a follower appends
	// from the journal stream's apply path. journaled is the highest
	// sequence durably in it, advanced after each successful sync.
	jour      *wal.SegmentedJournal
	journaled atomic.Int64
	// Admission's view of the journal, under dispatchMu: fronts[i] is one
	// past the highest event ID allocated to shard i, segBytes the record
	// bytes admitted into the active file, inTail whether that file is a
	// tail segment. A roll is decided here, where the journal's position is
	// a function of the dispatch order alone, and carried out by lane 0.
	fronts   []int
	segBytes int64
	inTail   bool
	// pinCap is journalPinCap (tests lower it on a running server).
	pinCap atomic.Int64

	// The finisher joins shard completions back into sequence order:
	// batches enter finishQ at dispatch, and the finisher replies to each
	// after its shards commit, running the streaming processors over the
	// stored events in dispatch order so responses are byte-identical for
	// any shard count.
	finishQ    chan *batch
	finishDone chan struct{}

	// serving is the serving phase: nil while loading, set once by
	// installServing (finalize, or recovery of a finalized data dir).
	serving atomic.Pointer[serving]

	// roll holds the Result Browser's incremental aggregates; hub fans
	// streaming diagnoses out to SSE clients. Both exist from Open on.
	roll *rollup.Rollup
	hub  *sseHub

	// Replication (DESIGN.md §16). Primary side: bootID names this
	// incarnation, replReg tracks followers (and pins compaction), replSrc
	// serves the streams.
	// Follower side: follower is non-nil on a read replica, and promoted,
	// once set, is the post-failover primary every request delegates to.
	bootID   string
	replReg  *replica.Registry
	replSrc  *replica.Source
	follower *followerState
	promoted atomic.Pointer[promotedNode]

	closing  chan struct{}
	httpSrv  *http.Server
	recovery RecoveryInfo
}

// RecoveryInfo reports what Open reconstructed, and where its time went.
type RecoveryInfo struct {
	// Batches is how many journaled ingest batches were replayed: all of
	// segment 0 and the retained tail.
	Batches int
	// Finalized reports whether the recovered service was already past
	// finalize.
	Finalized bool
	// Events is the recovered store's live event count.
	Events int
	// Shards is the shard count the data directory is bound to.
	Shards int
	// WALRebuilt is true when at least one shard was filled from the
	// journal over an empty checkpoint: its WAL was lost, unreadable, never
	// reached its first commit, or disagreed with the journal and was
	// wiped.
	WALRebuilt bool
	// SnapshotsSkipped is how many unreadable WAL snapshots recovery
	// passed over, summed across shards (wal.Recovery.SnapshotsSkipped).
	SnapshotsSkipped int
	// JournalSegments is how many journal files were found, journal.log
	// included.
	JournalSegments int
	// TailApplied and TailVerified split the retained tail's records by
	// what the frontier filter did with them: added at least one event to
	// a shard that lacked it, or found every event already held and equal.
	TailApplied, TailVerified int
	// The stages of Open: opening the shard WALs (segment 0 replays beside
	// it), replaying segment 0, putting the head's events and the retained
	// tail through the frontier filter, and building the serving state.
	WALOpen, HeadReplay, TailApply, ServingInstall time.Duration
}

// journalSegmentBytes is the size at which the journal's tail rolls to a
// new segment (a variable so tests can shrink it), journalForceAfter how
// many sealed segments may wait on a shard's snapshots before lane 0 takes
// the snapshots itself (an idle shard takes none of its own; a busy one's
// -snapshot-every cadence leaves fewer than that waiting), and
// journalPinCap the hard cap on what a follower may pin: past that many
// sealed segments the oldest goes whatever a follower has yet to read, and
// the follower re-bootstraps from a checkpoint.
var journalSegmentBytes int64 = wal.JournalSegmentBytes

const (
	journalForceAfter = 8
	journalPinCap     = 64
)

func journalPath(dir string) string { return filepath.Join(dir, "journal.log") }

// shardDir returns shard i's state directory: the data dir itself for a
// single-shard deployment (the pre-sharding layout), shard-<i>/ under it
// otherwise.
func shardDir(dataDir string, n, i int) string {
	if n == 1 {
		return dataDir
	}
	return filepath.Join(dataDir, fmt.Sprintf("shard-%d", i))
}

// checkShardMarker binds the data directory to its shard count:
// placement is hash(location) mod N, so reopening with a different N
// would pair each shard's WAL with the wrong slice of the replay.
// Pre-sharding directories (journal or WAL present, no marker) are
// adopted as single-shard only — stamping one with n>1 would orphan
// its root-level WAL under the shard-<i>/ layout. A multi-shard
// directory from before the single journal (shard-<i>/journal.log) is
// refused the same way: its history is not in the root journal.
func checkShardMarker(dataDir string, n int) error {
	// (Glob fails only on a malformed pattern.)
	if old, _ := filepath.Glob(journalPath(filepath.Join(dataDir, "shard-*"))); len(old) > 0 {
		return fmt.Errorf("server: data dir %s holds per-shard ingest journals (%s); this version keeps one journal at %s and does not migrate them",
			dataDir, strings.Join(old, ", "), journalPath(dataDir))
	}
	path := filepath.Join(dataDir, "SHARDS")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if n != 1 && legacyLayout(dataDir) {
			return fmt.Errorf("server: data dir %s holds a pre-sharding single-shard layout, opened with %d shards (resharding is not supported)",
				dataDir, n)
		}
		return os.WriteFile(path, []byte(strconv.Itoa(n)+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	have, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return fmt.Errorf("server: unreadable shard marker %s: %v", path, err)
	}
	if have != n {
		return fmt.Errorf("server: data dir %s holds %d shards, opened with %d (resharding is not supported)",
			dataDir, have, n)
	}
	return nil
}

// legacyLayout reports whether dataDir carries pre-sharding state at its
// root: an ingest journal or a WAL segment directory.
func legacyLayout(dataDir string) bool {
	if _, err := os.Stat(journalPath(dataDir)); err == nil {
		return true
	}
	if _, err := os.Stat(filepath.Join(dataDir, "wal")); err == nil {
		return true
	}
	return false
}

// Open recovers (or initializes) the service under cfg.DataDir.
func Open(cfg Config) (*Server, error) {
	cfg.defaults()
	if cfg.ReplicaOf != "" {
		return openFollower(cfg)
	}
	n := cfg.Shards
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	if err := checkShardMarker(cfg.DataDir, n); err != nil {
		return nil, err
	}
	topo, err := conf.Parse(cfg.Bundle.Configs, cfg.Bundle.Inventory)
	if err != nil {
		return nil, fmt.Errorf("server: config archive: %v", err)
	}
	tail, err := wal.RecoverJournalTail(cfg.DataDir)
	if err != nil {
		return nil, err
	}

	// Checkpoint + tail. A shard whose checkpoint cannot be read, or fails
	// the overlap check, is wiped and the recovery run again over its empty
	// checkpoint — possible only while the journal reaches back to ID 0.
	var rep replayResult
	var cps []checkpoint
	wiped := map[int]bool{}
	for {
		rep, cps, err = recoverJournal(cfg, topo, tail, func() []checkpoint { return openWALs(cfg) })
		var div *divergedError
		if !errors.As(err, &div) || !div.whole || wiped[div.shard] {
			break
		}
		closeCheckpoints(cps)
		if err := wipeShardState(cfg.DataDir, n, div.shard); err != nil {
			return nil, err
		}
		wiped[div.shard] = true
	}
	// Until the pipeline goroutines take ownership at the very end, every
	// open log and the journal are ours: close them all on any error path
	// so a failed Open leaks neither file handles nor fsync goroutines.
	var jour *wal.SegmentedJournal
	opened := false
	defer func() {
		if opened {
			return
		}
		closeCheckpoints(cps)
		if jour != nil {
			jour.Close() //nolint:errcheck // being discarded
		}
	}()
	if err != nil {
		return nil, err
	}
	if rep.info.WALRebuilt = rep.info.WALRebuilt || len(wiped) > 0; rep.info.WALRebuilt {
		mRebuilt.Inc()
	}

	jour, err = wal.OpenSegmentedJournal(cfg.DataDir, tail)
	if err != nil {
		return nil, err
	}
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{
			idx: i, st: cps[i].st, log: cps[i].log,
			queue: make(chan shardTask, cfg.MaxInflight),
			done:  make(chan struct{}),
		}
	}

	s, err := newServer(cfg, topo, rep, shards, jour)
	if err != nil {
		return nil, err
	}
	s.finishQ = make(chan *batch, n*cfg.MaxInflight+n+1)
	s.finishDone = make(chan struct{})
	s.journaled.Store(int64(rep.maxSeq))
	for i := range shards {
		l := shards[i].log
		shards[i].st.OnEvict(func([]*event.Instance, time.Time) {
			// Runs on that shard's applier goroutine (its only writer):
			// evicting the shard is the moment to snapshot, so segment
			// compaction keeps disk bounded the same way retention bounds
			// memory.
			l.Snapshot() //nolint:errcheck // counted in wal.snapshots.failed; the next snapshot covers the same delta
		})
	}
	s.initReplicationSource()
	// A finalized journal still in journal.log — a crash between the
	// finalize record and its roll, or a dir an earlier version wrote —
	// starts its tail here; what the snapshots already cover goes.
	if s.isFinalized() && !s.inTail {
		if err := s.rollJournal(s.tailHeader(s.seq, s.st.NextID())); err != nil {
			return nil, err
		}
		s.inTail, s.segBytes = true, 0
	}
	s.dropJournalSegments(false)
	opened = true
	for i := range shards {
		go s.applier(shards[i])
	}
	go s.finisher()
	return s, nil
}

// newServer assembles what a primary and a follower have in common: the
// Server over the recovered store and collector, the Result Browser
// rollups, and — when the journal already holds a finalize record — the
// serving phase with its processors' tails rebuilt. The caller adds its
// own role's half and starts the goroutines.
func newServer(cfg Config, topo *netmodel.Topology, rep replayResult, shards []*shard, jour *wal.SegmentedJournal) (*Server, error) {
	// The collector carries the journal's parse state; point it at the
	// authoritative store for all future ingest.
	st := rep.st.Sharded
	rep.coll.Store = st
	s := &Server{
		cfg: cfg, topo: topo, shards: shards, st: st, coll: rep.coll, jour: jour,
		roll:     rollup.New(rollup.Config{}),
		hub:      newSSEHub(),
		seq:      rep.maxSeq + 1,
		closing:  make(chan struct{}),
		recovery: rep.info,
		fronts:   make([]int, len(shards)),
		segBytes: jour.ActiveSize(),
		inTail:   len(jour.Tail()) > 0,
	}
	s.pinCap.Store(journalPinCap)
	s.recovery.Batches, s.recovery.Finalized = rep.batches, rep.finalized
	s.recovery.Events, s.recovery.Shards = st.Len(), len(shards)
	s.refreshFronts()
	mRecovered.Add(int64(rep.batches))
	mTailRecs.Add(int64(rep.info.TailApplied + rep.info.TailVerified))
	// The Result Browser rollups: seed the trend bins from the recovered
	// store (Restore bypasses the append hook), then track every future
	// append and eviction incrementally. Cause counters are seeded by
	// installServing once engines exist.
	s.roll.SeedEvents(st)
	st.OnAppend(s.roll.ObserveEvent)
	st.OnEvict(s.roll.EvictEvents)
	if rep.finalized {
		began := obs.Now()
		if err := s.installServing(true); err != nil {
			return nil, err
		}
		s.recovery.ServingInstall = obs.Since(began)
	}
	return s, nil
}

// Recovery reports what Open reconstructed.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Store exposes the authoritative event store (tests, CLI wiring).
func (s *Server) Store() store.Store { return s.st }

// journalApplier is the one definition of what a journaled record
// means: it decodes a record and applies it to a collector + store
// pair. Crash recovery drives it over the journal's files and a follower
// drives it over the journal stream — a follower is a recovery that never
// stops — so both allocate the same IDs on the same shards as the
// dispatch that wrote the record. The store is a frontierStore in every
// case: what a checkpoint already holds is verified and not stored again.
// (A tail segment's header record is its caller's: it says where the
// records behind it go, not what to apply.)
type journalApplier struct {
	coll *collector.Collector
	st   *frontierStore
	dep  cdn.Deployment
	// serving runs after a finalize record has closed the collector's
	// feed phase.
	serving func() error
	// stored, when set, sees each event record's stored instances; an
	// event the checkpoint already held is a nil in its place.
	stored func([]*event.Instance)
}

func (a *journalApplier) apply(rec []byte) (seq int, err error) {
	seq, kind, source, body, err := decodeJournalRecord(rec)
	if err != nil {
		return seq, err
	}
	var ins []event.Instance
	switch kind {
	case recFeed:
		// The dispatch journaled this batch before parsing it, so a parse
		// error recurs here deterministically (the primary answered it);
		// state after the partial ingest is identical either way.
		a.coll.Ingest(source, bytes.NewReader(body)) //nolint:errcheck // see above
		return seq, nil
	case recFinalize:
		if err := closeFeeds(a.coll, a.dep); err != nil {
			return seq, err
		}
		return seq, a.serving()
	case recEvents:
		var evs []EventJSON
		if err = json.Unmarshal(body, &evs); err == nil {
			ins, err = decodeEvents(evs)
		}
	case recEventsWire:
		var b wire.Batch
		if b, err = wire.Decode(body); err == nil && b.Kind != wire.KindEvents {
			err = fmt.Errorf("wire kind %d, want events", b.Kind)
		}
		ins = b.Events
	default:
		return seq, fmt.Errorf("unknown journal record kind %d", kind)
	}
	if err != nil {
		return seq, fmt.Errorf("journaled event batch %d: %v", seq, err)
	}
	stored := make([]*event.Instance, len(ins))
	for i := range ins {
		stored[i] = a.st.Add(ins[i])
	}
	if a.st.err != nil {
		return seq, a.st.err
	}
	if a.stored != nil {
		a.stored(stored)
	}
	return seq, nil
}

// closeFeeds ends the collector's feed phase: finalize, then derive the
// CDN egress-change events that need the finalized routing state.
func closeFeeds(c *collector.Collector, dep cdn.Deployment) error {
	if err := c.Finalize(); err != nil {
		return fmt.Errorf("finalize: %v", err)
	}
	cdn.MaterializeEgressChanges(c, dep, c.WindowStart, c.WindowEnd)
	return nil
}

// serving is the serving phase: the routing view and one streaming
// processor per application, in apps.All() order — the order streaming
// diagnoses of one event are reported in. A processor's engine is its
// application's only engine: the stream, /v1/diagnose, /v1/drilldown,
// the pending-symptom merge and the rollup seed all diagnose through it
// and so share one spatial cache. Built by installServing and never
// changed afterwards.
type serving struct {
	view *netstate.View
	apps []servedApp
}

type servedApp struct {
	apps.App
	proc *realtime.Processor
}

// app returns the named application's entry, or nil.
func (sv *serving) app(name string) *servedApp {
	for i := range sv.apps {
		if sv.apps[i].Name == name {
			return &sv.apps[i]
		}
	}
	return nil
}

// close force-drains every processor; a no-op before finalize.
func (sv *serving) close() {
	if sv == nil {
		return
	}
	for _, a := range sv.apps {
		a.proc.Close()
	}
}

// installServing transitions to the serving phase: routing view, CDN
// registration, and each application's streaming processor and engine.
// With rebuildTails (recovery), the processors re-observe the tail of
// the stored stream so symptoms still inside their grace window at the
// crash stay pending instead of vanishing; their already-served
// diagnoses are discarded. Runs under dispatchMu (finalize) or before
// concurrency starts (Open).
func (s *Server) installServing(rebuildTails bool) error {
	view := netstate.NewView(s.topo, s.coll.OSPF, s.coll.BGP)
	cdn.Register(view, s.cfg.Bundle.CDN)
	sv := &serving{view: view}
	for _, a := range apps.All() {
		_, g, err := a.Build()
		if err != nil {
			return fmt.Errorf("server: %s graph: %v", a.Name, err)
		}
		p := realtime.NewOnStore(s.st, view, g, realtime.GraceFor(g, maxEventDuration))
		sv.apps = append(sv.apps, servedApp{a, p})
	}
	if rebuildTails {
		rebuildTail(s.st, sv.apps)
	}
	for _, a := range sv.apps {
		// Seed the breakdown rollups: one full-evidence diagnosis of every
		// stored root symptom, so the Result Browser's invariant (breakdown
		// ≡ batch browser.Breakdown over the live store) holds from the
		// first request — including right after a crash recovery, where
		// this re-derives the identical counters deterministically.
		// Symptoms still pending in the processor are counted too; their
		// eventual grace-elapsed drain re-counts them with the (by then
		// unchanged) full evidence.
		name := a.Name
		for _, d := range a.proc.Engine().DiagnoseAllParallel(0) {
			s.roll.CountDiagnosis(name, d)
		}
		// Fan live diagnoses out to the rollup counters, the recent ring,
		// and the SSE stream. Installed after the tail rebuild so its
		// replayed emissions (already served before the crash) don't reach
		// the ring.
		a.proc.OnDiagnosis = func(d engine.Diagnosis) {
			seq := s.roll.AddDiagnosis(name, d)
			if s.hub.active() {
				s.hub.publish(seq, streamFrame(rollup.Entry{Seq: seq, App: name, D: d}))
			}
		}
	}
	s.serving.Store(sv)
	return nil
}

// rebuildTail replays the stored stream's tail (availability order)
// through the fresh processors: for each, the events past the span's end
// minus its grace window reconstruct the stream clock and the
// pending-symptom queue. The tail is gathered and sorted once, as far
// back as the longest grace reaches. Emitted diagnoses are dropped —
// anything whose grace elapsed before the crash was already served
// (streamed diagnoses are at-most-once; the authoritative answer is
// always /v1/diagnose).
func rebuildTail(st store.Store, served []servedApp) {
	_, last, ok := st.Span()
	if !ok {
		return
	}
	cutFor := func(a servedApp) time.Time { return last.Add(-a.proc.Grace - maxEventDuration) }
	cut := last
	for _, a := range served {
		if c := cutFor(a); c.Before(cut) {
			cut = c
		}
	}
	var tail []*event.Instance
	for _, name := range st.Names() {
		for _, in := range st.All(name) {
			if !in.End.Before(cut) {
				tail = append(tail, in)
			}
		}
	}
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].End.Before(tail[j].End) })
	for _, a := range served {
		own := cutFor(a)
		for _, in := range tail {
			if !in.End.Before(own) {
				a.proc.ObserveStored(in)
			}
		}
	}
}

func errResult(status int, format string, args ...any) taskResult {
	return taskResult{status: status, err: fmt.Errorf(format, args...)}
}

func (s *Server) isFinalized() bool { return s.serving.Load() != nil }

// queueTotals sums depth and capacity across all shard queues (len/cap
// on channels are safe concurrently).
func (s *Server) queueTotals() (depth, capacity int) {
	for _, sh := range s.shards {
		depth += len(sh.queue)
		capacity += cap(sh.queue)
	}
	return depth, capacity
}
