package store

import (
	"time"

	"grca/internal/event"
)

// Store is the event-store access surface the engine, collector, rollups,
// browser and WAL digesting program against: the methods some caller
// reaches through a Store value, and no more. Memory implements it; the
// server's recovery wraps a Memory in a filter that verifies, and does not
// store again, what a checkpoint already holds. Hooks, retention, point,
// paged and located reads are Memory's own.
type Store interface {
	// Add is the only way to write an event through a Store, so a wrapper
	// that overrides it sees every write. It assigns the ID; IDs ascend and
	// are never reused.
	Add(in event.Instance) *event.Instance

	// Reads. The events they return are copies their caller owns, so two
	// reads of one event are two pointers: identity is the ID.
	Len() int
	NextID() int
	Names() []string
	Query(name string, from, to time.Time) []*event.Instance
	All(name string) []*event.Instance
	Span() (first, last time.Time, ok bool)
	// SnapshotTo streams the whole content through one consistent cut:
	// header once with the ID bounds and live count, then each per live
	// instance in ID order, under the read lock (see Cut's rules).
	SnapshotTo(header func(base, next, count int) error, each func(*event.Instance) error) error
}

var _ Store = (*Memory)(nil)
