// Package ignore exercises the //lint:ignore escape hatch itself: a
// malformed directive must not suppress anything and must be reported
// under the badignore ID.
package ignore

import "time"

// A bad analyzer ID: the directive is a badignore diagnostic and the
// nakedtime finding below it still fires.
//
//lint:ignore nosuchcheck this ID does not exist
var t0 = time.Now()

// A missing reason: same story.
//
//lint:ignore nakedtime
var t1 = time.Now()

// Missing everything.
//
//lint:ignore
var t2 = time.Now()

// A well-formed directive suppresses its finding.
//
//lint:ignore nakedtime exemplar: sanctioned clock read for this test
var t3 = time.Now()

// A well-formed directive with no finding of its analyzer to suppress is
// stale: a badignore diagnostic of its own.
//
//lint:ignore nakedtime stale: this line reads no clock
var t4 = 4
