//go:build !linux

package store

// sysMap is the portable fallback: the heap, which the arena's map keeps
// reachable until the mapping is freed.
func sysMap(n int) ([]byte, error) { return make([]byte, n), nil }

// sysUnmap leaves the bytes to the collector.
func sysUnmap([]byte) error { return nil }

// sysRelease cannot release part of a heap object.
func sysRelease([]byte) error { return nil }
