package rawmem

import "unsafe"

// A pages*.go file is exempt only in grca/internal/store: here the
// import is a finding.
var _ = unsafe.Sizeof(0)
