// Package lockorder holds deliberately broken lock-nesting exemplars for
// the lockorder analyzer's golden test.
package lockorder

import "sync"

type A struct {
	mu sync.Mutex
	b  *B
}

type B struct {
	mu sync.Mutex
	a  *A
}

type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

var c C

var d D

// Both nests B.mu under A.mu; with BBoth's inverse nesting this is the
// classic AB/BA deadlock cycle. Both edges are also undocumented.
func (a *A) Both() {
	a.mu.Lock()
	a.b.mu.Lock()
	a.b.mu.Unlock()
	a.mu.Unlock()
}

// BBoth nests A.mu under B.mu — the inverse of Both.
func (b *B) BBoth() {
	b.mu.Lock()
	b.a.mu.Lock()
	b.a.mu.Unlock()
	b.mu.Unlock()
}

// Touch re-acquires A.mu through a helper: a guaranteed self-deadlock.
func (a *A) Touch() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.locked()
}

func (a *A) locked() {
	a.mu.Lock()
	defer a.mu.Unlock()
}

// WithC nests C.mu under A.mu; the directive suppresses the finding.
func (a *A) WithC() {
	a.mu.Lock()
	//lint:ignore lockorder exemplar: the A→C nesting is sanctioned here
	c.mu.Lock()
	c.mu.Unlock()
	a.mu.Unlock()
}

// WithD nests D.mu under A.mu; the golden test's allowlist sanctions it.
func (a *A) WithD() {
	a.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	a.mu.Unlock()
}

// Memo is a generic type whose methods take its own lock: a call to one
// must carry the lock to the caller like any other callee's.
type Memo[K comparable] struct {
	mu sync.Mutex
	m  map[K]int
	a  *A
}

// Get takes Memo.mu.
func (m *Memo[K]) Get(k K) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[k]
}

// Back nests A.mu under Memo.mu.
func (m *Memo[K]) Back() {
	m.mu.Lock()
	m.a.mu.Lock()
	m.a.mu.Unlock()
	m.mu.Unlock()
}

// Through reaches Memo.mu under A.mu through the generic method; with
// Back's nesting that is an A.mu → Memo.mu → A.mu cycle.
func (a *A) Through(m *Memo[string]) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return m.Get("k")
}

func lockMemo[K comparable](m *Memo[K]) {
	m.mu.Lock()
	m.mu.Unlock()
}

type E struct{ mu sync.Mutex }

// Explicit reaches Memo.mu under E.mu through an explicitly
// instantiated generic function.
func (e *E) Explicit(m *Memo[int]) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lockMemo[int](m)
}
