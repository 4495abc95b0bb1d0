// Package dead holds the deadcode exemplars. It is internal, so the
// module holds every caller it can have: a declaration nothing outside a
// test references is a finding.
package dead

// Used is called from package deadcode: not a finding.
func Used() int { return 1 }

// A Box is generic; deadcode calls its methods only through Box[int],
// whose methods resolve to these origins: not findings.
type Box[T any] struct{ v T }

// Put stores v.
func (b *Box[T]) Put(v T) { b.v = v }

// Peek returns what Put stored.
func (b *Box[T]) Peek() T { return b.v }

// Shape is an interface deadcode calls through.
type Shape interface{ Area() int }

// Square is a Shape. Area is only ever called through Shape, and it is
// a method of an interface in the program: not a finding.
type Square struct{ Side int }

// Area returns the square's area.
func (s Square) Area() int { return s.Side * s.Side }

// Label satisfies fmt.Stringer; String is called only by fmt.
type Label struct{}

func (Label) String() string { return "label" }

// Reset is a method no one calls: a finding.
func (b *Box[T]) Reset() { *b = Box[T]{} }

// Unused is exported and referenced by nothing: a finding.
func Unused() int { return 2 }

// countdown references only itself: a finding.
func countdown(n int) {
	if n > 0 {
		countdown(n - 1)
	}
}

// Limit is referenced by nothing: a finding.
const Limit = 3

// registry is referenced by nothing: a finding.
var registry = map[string]int{}

// Orphan is named only by its own method, and the method by no one: two
// findings.
type Orphan struct{}

func (o Orphan) clone() Orphan { return Orphan{} }

// TestOnly is called from dead_test.go alone, and test files are not
// callers: a finding.
func TestOnly() int { return 4 }

// Seam is reached only from a test, and says so: not a finding.
//
//lint:ignore deadcode TestSeam drives it as the hook under test
func Seam() int { return 5 }
