// Package server turns the G-RCA pipeline into a durable, network-facing
// diagnosis service: the paper's platform ran as a shared system that
// applications fed continuously and queried on demand (§II), and this
// package is that shape — an HTTP/JSON API over a journal-backed event
// store.
//
// # Durability model
//
// One store, one ingest journal, one applier goroutine. Every batch is
// written once, to the journal: accepted ingest batches — a feed's raw
// lines as one DEFLATE stream, or the validated events as one dense block
// — plus the finalize marker, each prefixed with the batch's dispatch
// sequence number: records in wal's one codec and kind table
// (wal.AppendJournalRecord, wal.ParseJournalRecord). The applier is its
// only appender, so file order is dispatch order. <data-dir>/journal.log
// is segment 0, everything through finalize: the collector's parse state
// (routing simulations, pairing buffers, rolling baselines) is a function
// of raw input, not of normalized events, so restart recovery replays it
// through a fresh collector, and it is never dropped. What follows
// finalize is store input only; it goes to tail segments
// (journal-<firstSeq>.log).
//
// A checkpoint (wal.Checkpointer, under snap/) is a manifest over runs
// that covers the store up to where the journal's active segment begins:
// each roll of the tail triggers one, and a sealed segment whose events
// are all still live becomes its range's run by hard link. Only the head's
// events and the ranges an eviction thinned are written again, from the
// store. Once two checkpoints cover a tail segment its journal name is
// unlinked.
//
// A batch's journal append (fsynced) is its commit point; the store insert
// follows it in the same goroutine. Startup is newest readable checkpoint
// + journal tail (recovery.go): the checkpoint loads while segment 0
// replays into a scratch store, then the head's events and the retained
// tail go through a frontier — an event the checkpoint holds is verified
// against it and skipped, one it lacks (everything in the active segment)
// is added. A primary then rolls and checkpoints before it serves, so the
// checkpoint alone holds every recovered event. A lost or disagreeing
// checkpoint is refilled from an empty one while the journal still reaches
// back to ID 0, and refused with a named error once its tail has been
// dropped (DESIGN.md §11, §15). Startup reads one format,
// the one this version writes: a data dir's FORMAT file names it by the
// number a replication hello carries, replica.ProtocolVersion, and a dir
// in any other is refused untouched (ErrFormat).
//
// # Pipeline
//
// Admission → applier → observer (DESIGN.md §15). HTTP handlers admit
// batches under a single lock that assigns the sequence number and a dense
// block of event IDs and enqueues the batch on one bounded queue — when it
// is full the handler answers 429 with a depth-derived Retry-After instead
// of buffering, before any sequence number or ID is consumed, so memory
// stays bounded and IDs stay dense under overload. The applier drains the
// queue in commit groups (journal append + one fsync, store inserts —
// amortized across every batch waiting) and hands each
// batch to the observer, a goroutine of its own so that the streaming
// processor runs beside the next group's fsync instead of behind it; the
// observer replies. Reads (diagnose, events, stats) bypass the queue.
package server

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	mTailRecs   = obs.GetCounter("server.recovery.tail.records")
)

// deflaters holds the feed records' compressors: a flate.Writer's state is
// about a megabyte, so one is reset per feed, not allocated per feed.
var deflaters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(nil, flate.BestSpeed) // fails only on a bad level
	return w
}}

// appendFeedRecord appends a wal.JournalFeedKind body to dst: uvarint
// len(lines) | lines as one raw DEFLATE stream (RFC 1951) at BestSpeed. It
// is a function of the lines alone, so a feed journals to the same bytes
// whichever API carried it. Feed text compresses to about 0.18×; stored
// blocks bound what text that does not compress costs.
func appendFeedRecord(dst, lines []byte) []byte {
	buf := bytes.NewBuffer(binary.AppendUvarint(dst, uint64(len(lines))))
	buf.Grow(len(lines)/4 + 64)
	w := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(w)
	w.Reset(buf)
	w.Write(lines) //nolint:errcheck // a bytes.Buffer does not fail
	w.Close()      //nolint:errcheck // ditto
	return buf.Bytes()
}

// inflateFeed hands ingest the lines of a wal.JournalFeedKind body as a
// stream — boot holds no second copy of a feed batch — and then holds the body
// to what it declares: a length no request could carry (maxBody) is
// refused before anything is read or allocated, and the DEFLATE stream
// must end exactly at the declared length, at the body's last byte.
// ingest need not read everything; inflateFeed reads the rest.
func inflateFeed(body []byte, ingest func(io.Reader)) error {
	n, sz := binary.Uvarint(body)
	switch {
	case sz <= 0:
		return fmt.Errorf("truncated line length")
	case n > maxBody:
		return fmt.Errorf("%d bytes of lines declared, over the %d-byte cap", n, maxBody)
	}
	src := bytes.NewReader(body[sz:])
	zr := flate.NewReader(src)
	lines := &feedLines{r: zr, left: int64(n)}
	ingest(lines)
	if _, err := io.Copy(io.Discard, lines); err != nil {
		return err
	}
	var one [1]byte
	if k, err := zr.Read(one[:]); k > 0 {
		return fmt.Errorf("the stream runs past the %d bytes declared", n)
	} else if err != io.EOF {
		return fmt.Errorf("the stream does not end at the %d bytes declared: %v", n, err)
	}
	if src.Len() > 0 {
		return fmt.Errorf("%d bytes trail the stream", src.Len())
	}
	return nil
}

// feedLines reads a feed record's lines: at most the declared length, and
// a stream that ends short of it, or breaks, is an error that sticks — the
// collector's scanner would take any error for the end of its input, so
// inflateFeed reports it instead.
type feedLines struct {
	r    io.Reader
	left int64
	err  error
}

func (f *feedLines) Read(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if f.left == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= int64(n)
	switch {
	case err == io.EOF && f.left > 0:
		f.err = fmt.Errorf("the stream ends %d bytes short of the length declared", f.left)
	case err != nil && err != io.EOF:
		f.err = err
	}
	return n, f.err
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
	// journal-<firstSeq>.log), its checkpoints (snap/), and FORMAT, the
	// number of the format they are written in.
	DataDir string
	// Bundle supplies the configuration archive and manifest (collection
	// window, CDN deployment). Its Feeds are ignored — feeds arrive over
	// HTTP.
	Bundle platform.Bundle
	// Shards is a vestige of the multi-lane pipeline (DESIGN.md §15): 0 and
	// 1 open, anything else is ErrMultiShard. It stays a field because
	// bench/ sets it and may not change with the code it measures; ROADMAP
	// item 1(e) deletes it.
	Shards int
	// Fsync is ignored, a vestige like Shards that bench/ sets: the ingest
	// journal's fsync per commit group is the one sync on the batch path
	// (see wal.FsyncPolicy). ROADMAP item 1(e) deletes it.
	Fsync wal.FsyncPolicy
	// SnapshotEvery, when positive, rolls the journal's tail — and so
	// checkpoints the store — once the active segment holds that many
	// events; the tail also rolls at JournalSegmentBytes.
	SnapshotEvery int
	// Retention, when positive, evicts events older than this behind the
	// store's moving window; the next checkpoint rewrites the runs an
	// eviction thinned and lets journal tail segments be dropped, so disk
	// follows the events retained (plus journal.log, the feed phase's
	// record — its feed batches DEFLATE-compressed, about 0.18× the lines
	// posted — which is kept whole).
	Retention time.Duration
	// MaxInflight bounds the ingest queue (default 64 batches); when it is
	// full, ingest answers 429.
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
}

func (c *Config) defaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
}

// task is one validated ingest request handed to admission.
type task struct {
	kind   byte
	source string
	lines  []byte
	events []event.Instance
	raw    []byte // journal body for wal.JournalFeedKind and wal.JournalEventKind
}

type taskResult struct {
	status     int
	resp       IngestResponse
	err        error
	retryAfter int // seconds, set on 429
}

// Server is an open diagnosis service.
type Server struct {
	cfg  Config
	topo *netmodel.Topology
	st   *store.Memory
	ckpt *wal.Checkpointer
	coll *collector.Collector

	// dispatchMu serializes batch admission: sequence numbering, event ID
	// allocation and queue placement. Feeds and finalize apply inline under
	// it (they read and mutate collector state), so it also serializes every
	// collector write.
	dispatchMu sync.Mutex
	// Admission's view of the pipeline, under dispatchMu: seq and nextID are
	// the next batch's sequence and first event ID, segBytes and segEvents
	// the record bytes and events admitted into the journal's active file,
	// inTail whether that file is a tail segment. A roll is decided here,
	// where the journal's position is a function of the dispatch order
	// alone, and carried out by the applier.
	seq, nextID int
	segBytes    int64
	segEvents   int
	inTail      bool

	// The commit pipeline (dispatch.go): admission sends on queue, the
	// applier commits what it receives in groups and sends on observeQ, the
	// observer runs the streaming processor and replies. Shutdown closes
	// queue; each stage closes the next one's inbox, and observed closes
	// when the observer has exited.
	queue    chan *batch
	observeQ chan *batch
	observed chan struct{}

	// jour is the ingest journal. A primary appends to it — and rolls it
	// to a new tail segment, and drops the segments the checkpoints cover —
	// from the applier (event batches) and, with the applier idle behind a
	// drain, from admission (feeds, finalize); a follower appends from the
	// journal stream's apply path. journaled is the highest sequence durably
	// in it, advanced after each successful sync.
	jour      *wal.SegmentedJournal
	journaled atomic.Int64
	// pinCap is journalPinCap (tests lower it on a running server).
	pinCap atomic.Int64

	// serving is the serving phase: nil while loading, set once by
	// installServing (finalize, or recovery of a finalized data dir).
	serving atomic.Pointer[serving]

	// roll holds the Result Browser's incremental aggregates; hub owns
	// the diagnosis stream: its sequence, its replay ring and its SSE
	// clients. Both exist from Open on.
	roll *rollup.Rollup
	hub  *sseHub

	// Replication (DESIGN.md §16). Primary side: bootID names this
	// incarnation, replReg tracks followers (and pins the journal), replSrc
	// serves the stream; a follower has neither, and its nil replReg pins
	// nothing.
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
	// SnapshotsSkipped is how many unreadable checkpoint manifests recovery
	// passed over (wal.Recovery.SnapshotsSkipped).
	SnapshotsSkipped int
	// JournalSegments is how many journal files were found, journal.log
	// included.
	JournalSegments int
	// TailApplied and TailVerified split the retained tail's records by
	// what the frontier filter did with them: added at least one event the
	// checkpoint lacked, or found every event already held and equal.
	TailApplied, TailVerified int
	// The stages of Open: loading the checkpoint (segment 0 replays beside
	// it), replaying segment 0, putting the head's events and the retained
	// tail through the frontier filter, and building the serving state.
	CheckpointOpen, HeadReplay, TailApply, ServingInstall time.Duration
}

// journalSegmentBytes is the size at which the journal's tail rolls to a
// new segment (a variable so tests can shrink it), and journalPinCap the
// hard cap on what a follower may pin: past that many sealed segments the
// oldest goes whatever a follower has yet to read, and the follower
// re-bootstraps from a checkpoint.
var journalSegmentBytes int64 = wal.JournalSegmentBytes

const journalPinCap = 64

func journalPath(dir string) string { return filepath.Join(dir, "journal.log") }

// ErrMultiShard refuses what only a multi-lane version ran: a shard count
// other than 1 in the configuration or on the primary a replica is pointed
// at. Open returns it before it creates, writes or wipes anything. (A data
// dir such a version wrote predates FORMAT, and ErrFormat refuses it.)
var ErrMultiShard = errors.New("server: this version runs one commit lane (DESIGN.md §15) and does not migrate multi-shard data dirs")

// ErrFormat refuses a data dir this version did not write: its FORMAT holds
// another number, or it has no FORMAT yet holds what Open reads. Open
// returns it before it creates, writes or wipes anything.
var ErrFormat = errors.New("server: the data dir is not in this version's format (DESIGN.md §11)")

// formatPath is the FORMAT file of a data dir.
func formatPath(dataDir string) string { return filepath.Join(dataDir, "FORMAT") }

// checkFormat holds what dataDir already contains against ErrFormat. It
// only reads; fresh is true for an empty or missing dir, which Open
// initializes.
func checkFormat(dataDir string) (fresh bool, err error) {
	data, err := os.ReadFile(formatPath(dataDir))
	switch {
	case err == nil:
		if have := strings.TrimSpace(string(data)); have != strconv.Itoa(replica.ProtocolVersion) {
			return false, fmt.Errorf("%w: %s says %q, this version reads and writes %d", ErrFormat, formatPath(dataDir), have, replica.ProtocolVersion)
		}
		return false, nil
	case !os.IsNotExist(err):
		return false, err
	}
	// What an earlier version wrote: the journal, the event WAL and the
	// snapshots, and a multi-shard version's SHARDS marker and shard-<i>/.
	for _, pattern := range []string{"journal*.log", "wal", "snap", "SHARDS", "shard-*"} {
		// (Glob fails only on a malformed pattern.)
		if found, _ := filepath.Glob(filepath.Join(dataDir, pattern)); len(found) > 0 {
			return false, fmt.Errorf("%w: %s has no FORMAT file but holds %s", ErrFormat, dataDir, strings.Join(found, ", "))
		}
	}
	return true, nil
}

// Open recovers (or initializes) the service under cfg.DataDir. A replica
// (cfg.ReplicaOf) recovers exactly as a primary does; what is its own is
// the rendezvous with its primary before recovery and a stream client
// where a primary starts its applier (follower.go).
func Open(cfg Config) (*Server, error) {
	cfg.defaults()
	if cfg.Shards < 0 || cfg.Shards > 1 {
		return nil, fmt.Errorf("%w: %d shards configured", ErrMultiShard, cfg.Shards)
	}
	fresh, err := checkFormat(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	var fol *followerState
	if cfg.ReplicaOf != "" {
		if fol, err = prepareFollower(cfg); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	// FORMAT is durable before any journal byte: a dir holding a journal
	// and no FORMAT is always an earlier version's.
	if fresh {
		if err := writeMarker(formatPath(cfg.DataDir), strconv.Itoa(replica.ProtocolVersion)+"\n"); err != nil {
			return nil, err
		}
	}
	topo, err := conf.Parse(cfg.Bundle.Configs, cfg.Bundle.Inventory)
	if err != nil {
		return nil, fmt.Errorf("server: config archive: %v", err)
	}

	// Checkpoint + tail. A checkpoint that cannot be read, or fails the
	// overlap check, is wiped and the recovery run once more over an empty
	// one — possible only while the journal reaches back to ID 0. Behind a
	// truncated journal a primary refuses it by name; a follower wipes all
	// it was shipped instead, and bootstraps anew from its primary.
	var (
		tail []wal.JournalSegment
		rep  replayResult
		cp   checkpoint
	)
	for attempt := 0; ; attempt++ {
		if tail, err = wal.RecoverJournalTail(cfg.DataDir); err == nil {
			rep, cp, err = recoverJournal(cfg, topo, tail)
		}
		var div *divergedError
		refill := errors.As(err, &div) && div.whole
		resync := fol != nil && (errors.Is(err, ErrCheckpointLost) || errors.Is(err, ErrCheckpointDiverged))
		if attempt > 0 || !(refill || resync) {
			break
		}
		wipe := wipeShippedState
		if refill {
			wipe = wipeCheckpoints
		}
		if err := wipe(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}
	// Until the stream client or the pipeline goroutines take ownership at
	// the very end, the journal is ours: close it on any error path so a
	// failed Open leaks no file handle.
	jour, err := wal.OpenSegmentedJournal(cfg.DataDir, tail)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			jour.Close() //nolint:errcheck // being discarded
		}
	}()
	s, err := newServer(cfg, topo, rep, jour)
	if err != nil {
		return nil, err
	}
	s.ckpt = cp.ckpt
	if fol != nil {
		s.follow(fol, rep)
	} else {
		// The collector carries the journal's parse state. From here on its
		// adds go to the store itself and admission numbers them; a
		// follower's keep going through the replay's frontier.
		s.coll.Store = s.st
		s.queue = make(chan *batch, cfg.MaxInflight)
		// As deep as the queue, so the applier hands a whole commit group to
		// the observer without waiting on it; deeper would only let
		// acknowledged-but-unobserved batches pile up.
		s.observeQ = make(chan *batch, cfg.MaxInflight)
		s.observed = make(chan struct{})
		s.journaled.Store(int64(rep.maxSeq))
		s.initReplicationSource()
		// The checkpoint alone holds every recovered event before the node
		// serves: what the active file holds — behind a crash, or a finalize
		// record whose roll did not happen — is sealed by a roll and
		// checkpointed.
		if s.isFinalized() {
			if err := s.rollAndCheckpoint(); err != nil {
				return nil, err
			}
		}
	}
	s.dropJournalSegments()
	opened = true
	if fol != nil {
		fol.client.Start()
	} else {
		go s.applier()
		go s.observer()
	}
	return s, nil
}

// newServer assembles the Server over the recovered store and collector,
// the Result Browser rollups, and — when the journal already holds a
// finalize record — the serving phase with its processor's tail rebuilt.
// Open adds the role's half and starts the goroutines.
func newServer(cfg Config, topo *netmodel.Topology, rep replayResult, jour *wal.SegmentedJournal) (*Server, error) {
	st := rep.st.Memory
	s := &Server{
		cfg: cfg, topo: topo, st: st, coll: rep.coll, jour: jour,
		roll:     rollup.New(rollup.Config{}),
		hub:      newSSEHub(),
		seq:      rep.maxSeq + 1,
		nextID:   rep.st.NextID(),
		closing:  make(chan struct{}),
		recovery: rep.info,
		segBytes: jour.ActiveSize(),
		inTail:   len(jour.Tail()) > 0,
	}
	if tail := jour.Tail(); len(tail) > 0 {
		s.segEvents = max(tail[len(tail)-1].Events, 0)
	}
	s.pinCap.Store(journalPinCap)
	s.recovery.Batches, s.recovery.Finalized = rep.batches, rep.finalized
	s.recovery.Events = st.Len()
	mRecovered.Add(int64(rep.batches))
	mTailRecs.Add(int64(rep.info.TailApplied + rep.info.TailVerified))
	// The Result Browser rollups hold the cause counters, which
	// installServing seeds once engines exist; retention un-counts evicted
	// symptoms. Event trends need no rollup: they count the store's own
	// start column.
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

// Store exposes the authoritative event store.
func (s *Server) Store() store.Store { return s.st }

// journalApplier is the one definition of what a journaled record
// means: it decodes a record and applies it to a collector + store
// pair. Crash recovery drives it over the journal's files and a follower
// drives it over the journal stream — a follower is a recovery that never
// stops — so both allocate the same IDs as the dispatch that wrote the
// record. The store is a frontierStore in every
// case: what a checkpoint already holds is verified and not stored again.
// (A tail segment's header record is its caller's: it says where the
// records behind it go, not what to apply.)
type journalApplier struct {
	coll *collector.Collector
	st   *frontierStore // set by writeTo, with the collector's
	dep  cdn.Deployment
	// serving runs after a finalize record has closed the collector's
	// feed phase.
	serving func() error
	// stored, when set, sees each event record's stored instances; an
	// event the checkpoint already held is a nil in its place.
	stored func([]*event.Instance)
}

// writeTo makes fs the store of the applier and of its collector at once:
// an event record's IDs and the ones the collector's own adds take (a
// feed's, closeFeeds's) interleave in one journal, so they come from one
// allocator.
func (a *journalApplier) writeTo(fs *frontierStore) {
	a.st, a.coll.Store = fs, fs
}

// apply applies one record, whichever kind wal's table gives it: every
// kind this version writes has a case, so two that collide do not
// compile.
func (a *journalApplier) apply(rec []byte) (seq int, err error) {
	r, err := wal.ParseJournalRecord(rec)
	if err != nil {
		return r.Seq, err
	}
	seq, body := r.Seq, r.Body
	var ins []event.Instance
	switch r.Kind {
	case wal.JournalFeedKind:
		// The dispatch journaled the feed before parsing it, so a parse error
		// recurs here deterministically (the primary answered it); state after
		// the partial ingest is identical either way. A body that does not
		// inflate to what it declares is another matter: a corrupt record.
		if err := inflateFeed(body, func(lines io.Reader) {
			a.coll.Ingest(r.Source, lines) //nolint:errcheck // see above
		}); err != nil {
			return seq, fmt.Errorf("journaled feed batch %d: %v", seq, err)
		}
		return seq, nil
	case wal.JournalFinalizeKind:
		if err := closeFeeds(a.coll, a.dep); err != nil {
			return seq, err
		}
		return seq, a.serving()
	case wal.JournalSegmentKind:
		return seq, fmt.Errorf("a journal segment header is not a batch")
	case wal.JournalEventKind:
		ins, err = wire.DecodeEventBlock(body)
	default:
		return seq, fmt.Errorf("unknown journal record kind %d", r.Kind)
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

// serving is the serving phase: the routing view, each application's one
// engine in apps.All() order (the stream, /v1/diagnose, /v1/drilldown,
// the pending-symptom merge and the rollup seed all diagnose through it),
// and one streaming processor with a stream per application in the same
// order — the order streaming diagnoses of one event are reported in.
// Everything expands through view's one cache. Built by installServing
// and never changed afterwards.
type serving struct {
	view   *netstate.View
	apps   []servedApp
	proc   *realtime.Processor
	rootOf map[string]string // root symptom name → application (apps.TestRootsDistinct)
	// clock is the processor's stream clock, the latest End observed, as
	// the observing goroutine tracks it: observeStored, or installServing
	// before publishing.
	clock time.Time
}

type servedApp struct {
	apps.App
	eng *engine.Engine
	// stale says an event arrived behind the stream clock since the counted
	// labels were last derived from the store (pendingDiagnoses).
	stale *atomic.Bool
}

// noteArrival advances the stream clock to in, or — for an event that
// arrives behind it — marks every application's counted labels stale: a
// symptom diagnosed already may have lacked in as evidence. An event in
// order cannot be evidence for a drained symptom, whose grace, the reach
// of its evidence, the clock has passed.
func (sv *serving) noteArrival(in *event.Instance) {
	if in.End.Before(sv.clock) {
		for _, a := range sv.apps {
			a.stale.Store(true)
		}
		return
	}
	sv.clock = in.End
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

// close force-drains the processor; a no-op before finalize.
func (sv *serving) close() {
	if sv != nil {
		sv.proc.Close()
	}
}

// installServing transitions to the serving phase. With rebuildTail
// (recovery), the processor re-observes the tail of the stored stream so
// symptoms still inside their grace window at the crash stay pending
// instead of vanishing. Runs under dispatchMu (finalize) or before
// concurrency starts (Open).
func (s *Server) installServing(rebuildTail bool) error {
	view := netstate.NewView(s.topo, s.coll.OSPF, s.coll.BGP)
	cdn.Register(view, s.cfg.Bundle.CDN)
	sv := &serving{view: view, rootOf: map[string]string{}}
	var streams []realtime.Stream
	var roots []string
	var grace time.Duration // the longest
	for _, a := range apps.All() {
		_, g, err := a.Build()
		if err != nil {
			return fmt.Errorf("server: %s graph: %v", a.Name, err)
		}
		eng := engine.New(s.st, view, g)
		sv.apps = append(sv.apps, servedApp{a, eng, new(atomic.Bool)})
		sv.rootOf[g.Root] = a.Name
		roots = append(roots, g.Root)
		streams = append(streams, realtime.Stream{Name: a.Name, Engine: eng, Grace: realtime.GraceFor(g, maxEventDuration)})
		grace = max(grace, streams[len(streams)-1].Grace)
	}
	sv.proc = realtime.NewStreams(s.st, streams...)
	if rebuildTail {
		sv.clock = replayTail(s.st, sv.proc, roots, grace)
	}
	// Seed the breakdown rollups with one full-evidence diagnosis of every
	// stored root symptom, so breakdown ≡ batch browser.Breakdown over the
	// live store from the first request, after a crash recovery too.
	// Pending symptoms are counted too; their grace-elapsed drain re-counts
	// them with the (by then unchanged) full evidence.
	for i := range sv.apps {
		s.countAll(&sv.apps[i])
	}
	// Fan live diagnoses out to the rollup counters and the stream's hub.
	// Installed after the tail replay so its emissions (already served
	// before the crash) don't reach the stream.
	sv.proc.OnDiagnosis = func(app string, d engine.Diagnosis) {
		s.roll.AddDiagnosis(app, d)
		s.hub.publish(app, d)
	}
	s.serving.Store(sv)
	return nil
}

// countAll counts one full-evidence diagnosis of every stored root
// symptom of a.
func (s *Server) countAll(a *servedApp) {
	for _, d := range a.eng.DiagnoseAllParallel(0) {
		s.roll.AddDiagnosis(a.Name, d)
	}
}

// replayTail replays the stored stream's last grace window (availability
// order) through a fresh processor, rebuilding its clock and every
// stream's pending queue; a stream with a shorter grace drains its extra
// symptoms before the replay ends. Only the root symptoms are replayed:
// nothing else is queued, and the clock, advanced to the store's last End
// at the end, drains what the events between them would have. What it
// emits was served before the crash and is dropped: streamed diagnoses
// are at-most-once. It returns the clock it left the processor at.
func replayTail(st store.Store, proc *realtime.Processor, roots []string, grace time.Duration) time.Time {
	_, last, ok := st.Span()
	if !ok {
		return time.Time{}
	}
	cut := last.Add(-grace - maxEventDuration)
	// A window query, not All: only the tail is materialized.
	var tail []*event.Instance
	for _, name := range roots {
		tail = append(tail, st.Query(name, cut, last)...)
	}
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].End.Before(tail[j].End) })
	for _, in := range tail {
		proc.ObserveStored(in)
	}
	proc.Advance(last)
	return last
}

func errResult(status int, format string, args ...any) taskResult {
	return taskResult{status: status, err: fmt.Errorf(format, args...)}
}

func (s *Server) isFinalized() bool { return s.serving.Load() != nil }
