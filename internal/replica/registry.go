package replica

import (
	"sort"
	"sync"
	"time"

	"grca/internal/obs"
)

var mFollowers = obs.GetGauge("replica.source.followers")

// pinGrace is how long a disconnected follower's journal pin survives:
// segments it has not been shipped stay on disk for this window so a
// transient partition does not force a checkpoint re-bootstrap. Tests
// lower it.
var pinGrace = 5 * time.Minute

// Registry tracks attached followers on the primary: each follower's
// shipped sequence feeds the journal pin, and the whole table backs
// /v1/replication/status. A follower that disconnects keeps its entry
// (and its pin) for the grace window; reconnecting within it resumes from
// retained segments instead of a checkpoint.
type Registry struct {
	grace time.Duration

	mu        sync.Mutex
	conns     uint64 // connections ever attached: the last one's token
	followers map[string]*followerEntry
}

type followerEntry struct {
	id         string
	owner      uint64 // the newest connection's token
	streams    int    // 1 while that connection is open, else 0
	lastSeen   time.Time
	journalSeq int // last journal seq shipped
}

// FollowerStatus is one follower's row in the primary's replication
// status.
type FollowerStatus struct {
	ID         string  `json:"id"`
	Streams    int     `json:"streams"`
	Connected  bool    `json:"connected"`
	IdleSecs   float64 `json:"idle_seconds"`
	JournalSeq int     `json:"journal_seq"`
}

// NewRegistry returns an empty registry whose pins last pinGrace, read
// here once so that a test lowering it races no registry already serving.
func NewRegistry() *Registry {
	return &Registry{grace: pinGrace, followers: map[string]*followerEntry{}}
}

// Attach registers a stream connection for the follower, creating its
// entry (pinning the whole journal) on first contact, and returns the
// connection's token: from now on it alone owns the entry, and one it
// replaced (a half-closed socket may look alive) notes and detaches nothing.
func (r *Registry) Attach(id string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.followers[id]
	if e == nil {
		e = &followerEntry{id: id, journalSeq: -1}
		r.followers[id] = e
	}
	r.conns++
	e.owner, e.streams = r.conns, 1
	e.lastSeen = obs.Now()
	r.expireLocked()
	return e.owner
}

// Detach ends conn, if it owns the entry, and stamps the grace clock.
func (r *Registry) Detach(id string, conn uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.followers[id]; e != nil && e.owner == conn {
		e.streams = 0
		e.lastSeen = obs.Now()
	}
	r.expireLocked()
}

// NoteJournal records, if conn owns the entry, the journal sequence the
// follower holds or was last shipped. It is set, not raised: a reconnect
// says where the follower really stands, and that may be below what an
// earlier connection had sent.
func (r *Registry) NoteJournal(id string, conn uint64, seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.followers[id]; e != nil && e.owner == conn {
		e.journalSeq = seq
		e.lastSeen = obs.Now()
	}
}

// PinJournal returns the journal's pin — the lowest sequence some live
// (attached, or disconnected within the grace window) follower has not
// been shipped — or -1 when no follower pins it: a tail segment holding
// that sequence or a later one stays on the primary's disk, up to the
// server's hard cap. A nil registry — a follower's: replication does not
// chain — pins nothing.
func (r *Registry) PinJournal() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked()
	pin := -1
	for _, e := range r.followers {
		if next := e.journalSeq + 1; pin < 0 || next < pin {
			pin = next
		}
	}
	return pin
}

// expireLocked removes disconnected entries past the grace window and
// publishes the follower count. Every path that adds, detaches or lists
// followers runs it, so the replica.source.followers gauge is what
// Status would report.
func (r *Registry) expireLocked() {
	for id, e := range r.followers {
		if e.streams == 0 && obs.Since(e.lastSeen) > r.grace {
			delete(r.followers, id)
		}
	}
	mFollowers.Set(int64(len(r.followers)))
}

// Status returns every live follower's row, sorted by ID.
func (r *Registry) Status() []FollowerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked()
	out := make([]FollowerStatus, 0, len(r.followers))
	for _, e := range r.followers {
		out = append(out, FollowerStatus{
			ID: e.id, Streams: e.streams, Connected: e.streams > 0,
			IdleSecs:   obs.Since(e.lastSeen).Seconds(),
			JournalSeq: e.journalSeq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
