// Package deadcode is the caller half of the deadcode exemplars: what it
// references in the internal package dead is live, whatever the route —
// a plain call from another package, a generic method reached through an
// instantiation, a method reached through an interface.
package deadcode

import (
	"fmt"

	"broken/deadcode/internal/dead"
)

// Run uses the live half of package dead.
func Run() string {
	b := &dead.Box[int]{}
	b.Put(dead.Used())
	var s dead.Shape = dead.Square{Side: 2}
	var l dead.Ledger = dead.Book{}
	return fmt.Sprint(b.Peek(), s.Area(), l.Total(), dead.Label{})
}
