package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"grca/internal/obs"
	"grca/internal/replica"
)

// Replication: a primary tails its own ingest journal and streams it to
// followers (internal/replica); a follower applies the stream through the
// same path crash recovery uses, checkpoints at the primary's rolls like a
// primary, and serves the read API live. See DESIGN.md §16.

var (
	mReplApplied  = obs.GetCounter("replica.follower.applied.batches")
	mReplSeq      = obs.GetGauge("replica.follower.applied.seq")
	mReplLagBytes = obs.GetGauge("replica.follower.journal.lag.bytes")
	// Events the primary holds that the follower has not applied.
	mReplLagRecs = obs.GetGauge("replica.follower.wal.lag.records")
)

// newBootID returns a fresh primary-incarnation ID. Followers refuse to
// resume a stream across a boot-ID change: recovery after a torn crash
// may renumber sequences (DESIGN.md §15), so shipped history from an
// older incarnation cannot be extended, only replaced.
func newBootID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: boot ID entropy: %v", err)) // crypto/rand does not fail on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// initReplicationSource wires the primary side of replication: the
// follower registry and the stream source over the journal.
func (s *Server) initReplicationSource() {
	s.bootID = newBootID()
	s.replReg = replica.NewRegistry()
	s.replSrc = replica.NewSource(replica.SourceConfig{
		BootID:          s.bootID,
		DataDir:         s.cfg.DataDir,
		JournalFrontier: func() int { return int(s.journaled.Load()) },
		JournalOffset:   s.jour.Offset,
		WALFrontier:     s.st.NextID,
		Registry:        s.replReg,
	})
}

// isFollower reports whether this server is a read replica (not yet
// promoted).
func (s *Server) isFollower() bool { return s.follower.Load() != nil }

// ReplicationMetaJSON is the primary's stream rendezvous document: its
// incarnation, the journal's durable sequence and logical size — the bytes
// ever journaled, dropped tail segments included, which is what a
// follower's own figure counts too — and the store's next event ID
// (WALNext, named for the log that once held it). Shards is
// always 1 and the three slices always hold one element, vestiges of the
// multi-lane pipeline kept because the benchmark (bench/) indexes them and
// may not change with the code it measures; ROADMAP item 1(e) makes them
// scalars.
type ReplicationMetaJSON struct {
	BootID       string  `json:"boot_id"`
	Shards       int     `json:"shards"`
	Sealed       []int   `json:"sealed"`
	JournalBytes []int64 `json:"journal_bytes"`
	WALNext      []int   `json:"wal_next"`
}

// ReplicationStatusJSON is /v1/replication/status for either role.
type ReplicationStatusJSON struct {
	Role   string `json:"role"` // "primary" | "replica"
	BootID string `json:"boot_id"`

	// Primary side.
	Followers []replica.FollowerStatus `json:"followers,omitempty"`

	// Follower side.
	Primary       string `json:"primary,omitempty"`
	AppliedSeq    *int   `json:"applied_seq,omitempty"`
	PrimarySealed *int   `json:"primary_sealed,omitempty"`
	// ShardLag holds one row, for the same reason ReplicationMetaJSON's
	// slices hold one element.
	ShardLag    []ReplicaShardLag `json:"shard_lag,omitempty"`
	LagSeconds  float64           `json:"lag_seconds,omitempty"`
	StreamError string            `json:"stream_error,omitempty"`
}

// ReplicaShardLag is a follower's catch-up position: the journal's
// logical bytes, and the event ID its replay stands at (WALNext) against
// the primary store's next ID — equal once it has applied every event the
// primary holds. SnapBootstraps counts the checkpoints loaded.
type ReplicaShardLag struct {
	JournalBytes    int64 `json:"journal_bytes"`
	PrimaryJournal  int64 `json:"primary_journal_bytes"`
	LagBytes        int64 `json:"lag_bytes"`
	WALNext         int   `json:"wal_next"`
	PrimaryWALNext  int   `json:"primary_wal_next"`
	WALLag          int   `json:"wal_lag_records"`
	SnapBootstraps  int   `json:"snapshot_bootstraps,omitempty"`
	StreamConnected bool  `json:"stream_connected"`
}

func (s *Server) handleReplMeta(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		writeErr(w, http.StatusConflict, "this node is a replica; streams are served by the primary")
		return
	}
	writeJSON(w, http.StatusOK, ReplicationMetaJSON{
		BootID:       s.bootID,
		Shards:       1,
		Sealed:       []int{int(s.journaled.Load())},
		JournalBytes: []int64{s.jour.Offset()},
		WALNext:      []int{s.st.NextID()},
	})
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if fs := s.follower.Load(); fs != nil {
		writeJSON(w, http.StatusOK, fs.status(s))
		return
	}
	writeJSON(w, http.StatusOK, ReplicationStatusJSON{
		Role:      "primary",
		BootID:    s.bootID,
		Followers: s.replReg.Status(),
	})
}

// handleReplJournal validates a stream request (?id=&from=) and hands the
// connection to the replication source, which streams the ingest journal.
// Mounted raw (no request timeout): the stream ends on its streamContext,
// when the follower disconnects or Shutdown begins.
func (s *Server) handleReplJournal(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		writeErr(w, http.StatusConflict, "this node is a replica; streams are served by the primary")
		return
	}
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		writeErr(w, http.StatusBadRequest, "missing follower id")
		return
	}
	// Below -1, a fresh follower's cursor, a pin would read as no pin.
	from, err := strconv.Atoi(q.Get("from"))
	if err != nil || from < -1 {
		writeErr(w, http.StatusBadRequest, "bad from cursor")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	flush := func() { rc.Flush() } //nolint:errcheck // a broken connection fails the next write too
	ctx, release := s.streamContext(r)
	defer release()
	s.replSrc.ServeJournal(ctx, w, flush, id, from) //nolint:errcheck // stream end is the follower's signal
}

func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	if !s.isFollower() {
		writeErr(w, http.StatusConflict, "this node is already a primary")
		return
	}
	info, err := s.Promote()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "promote: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// redirected fences a write endpoint on a follower, and reports whether
// it did: 307 keeps the method and body, pointing the client at the
// primary.
func (s *Server) redirected(w http.ResponseWriter, r *http.Request) bool {
	fs := s.follower.Load()
	if fs == nil {
		return false
	}
	target := fs.primary + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
	return true
}

// replicaFile is the follower's identity marker under the data dir: the
// primary incarnation the local state was shipped from, and this
// follower's stable stream ID.
func replicaFile(dataDir string) string { return dataDir + string(os.PathSeparator) + "REPLICA" }
