package store

import (
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// Store is the event-store access surface the engine, collector, rollups,
// browser and WAL digesting program against. Memory implements it; the
// server's recovery wraps a Memory in a filter that verifies, and does not
// store again, what a checkpoint already holds.
type Store interface {
	// Add is the only way to write an event through a Store, so a wrapper
	// that overrides it sees every write. It assigns the ID; IDs ascend and
	// are never reused.
	Add(in event.Instance) *event.Instance

	// Point and scan reads. Each hands out copies its caller owns, so two
	// reads of one event are two pointers: identity is the ID.
	Get(id int) (*event.Instance, bool)
	Len() int
	NextID() int
	Count(name string) int
	Names() []string
	Query(name string, from, to time.Time) []*event.Instance
	QueryFunc(name string, from, to time.Time, keep func(*event.Instance) bool) []*event.Instance
	QueryAt(name string, from, to time.Time, loc locus.Location) []*event.Instance
	All(name string) []*event.Instance
	ScanAfter(name string, after, limit int) (out []*event.Instance, more bool)
	Span() (first, last time.Time, ok bool)
	// SnapshotTo streams the whole content through one consistent cut:
	// header once with the ID bounds and live count, then each per live
	// instance in ID order, under the read lock (see Cut's rules).
	SnapshotTo(header func(base, next, count int) error, each func(*event.Instance) error) error

	// Hooks and retention. Hooks must be registered before concurrent use.
	OnAppend(fn func(*event.Instance))
	OnEvict(fn func(evicted []*event.Instance, cutoff time.Time))
	SetRetention(d time.Duration)
	Retention() time.Duration
	EvictBefore(cutoff time.Time) int
}

var _ Store = (*Memory)(nil)
