// Package rawmem holds deliberately broken raw-memory exemplars for the
// rawmem analyzer's golden test.
package rawmem

import (
	"syscall"
	"unsafe"
)

// Map maps and unmaps a page outside the store's allocator: two findings,
// beside the unsafe import's.
func Map() error {
	b, err := syscall.Mmap(-1, 0, 4096, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	return syscall.Munmap(b)
}

// Size uses the import.
func Size() uintptr { return unsafe.Sizeof(int64(0)) }

type pager struct{}

func (pager) Mmap() {}

// NotSyscall calls a method that only shares the name: quiet.
func NotSyscall() { pager{}.Mmap() }
