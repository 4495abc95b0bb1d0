// Package hookreentry holds deliberately broken hook-callback exemplars
// for the hookreentry analyzer's golden test. Store mirrors the real
// store's OnAppend/OnEvict registration and invocation shape.
package hookreentry

import "sync"

type Item struct{ ID int }

type Store struct {
	mu       sync.RWMutex
	items    []Item
	onAppend []func(Item)
	onEvict  []func(Item)
}

func (s *Store) OnAppend(fn func(Item)) {
	s.onAppend = append(s.onAppend, fn)
}

func (s *Store) OnEvict(fn func(Item)) {
	s.onEvict = append(s.onEvict, fn)
}

// Add invokes the append hooks while holding the write lock.
func (s *Store) Add(it Item) {
	s.mu.Lock()
	s.items = append(s.items, it)
	for _, fn := range s.onAppend {
		fn(it)
	}
	s.mu.Unlock()
}

// Evict snapshots the callbacks under the lock and invokes them outside
// it — the sanctioned OnEvict pattern.
func (s *Store) Evict() {
	s.mu.Lock()
	var gone Item
	if len(s.items) > 0 {
		gone, s.items = s.items[0], s.items[1:]
	}
	cbs := s.onEvict
	s.mu.Unlock()
	for _, cb := range cbs {
		cb(gone)
	}
}

func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.items)
}

// Register binds an append hook that re-enters the store under its own
// lock: deadlock.
func Register(s *Store) {
	s.OnAppend(func(Item) {
		_ = s.Len()
	})
}

// RegisterEvict binds an evict hook that mutates the store that fired
// it: re-entrant mutation.
func RegisterEvict(s *Store) {
	s.OnEvict(func(it Item) {
		s.Add(it)
	})
}

// RegisterSuppressed is the same deadlock, acknowledged by directive.
func RegisterSuppressed(s *Store) {
	//lint:ignore hookreentry exemplar: acknowledged re-entry for the golden test
	s.OnAppend(func(Item) { _ = s.Len() })
}

// RegisterClean binds a callback that never touches the store again —
// the correct shape, not flagged.
func RegisterClean(s *Store, sink chan<- Item) {
	s.OnEvict(func(it Item) {
		select {
		case sink <- it:
		default:
		}
	})
}

// Sharded is a forwarder: its OnAppend registers nothing itself, it hands
// the callback on to every store it is made of.
type Sharded struct{ shards []*Store }

func (sh *Sharded) OnAppend(fn func(Item)) {
	for _, s := range sh.shards {
		s.OnAppend(fn)
	}
}

// RegisterForwarded binds the deadlocking hook through the forwarder; the
// registration is still seen.
func RegisterForwarded(sh *Sharded) {
	sh.OnAppend(func(Item) {
		_ = sh.shards[0].Len()
	})
}
