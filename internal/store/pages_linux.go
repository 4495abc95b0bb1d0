package store

import "syscall"

// sysMap maps n bytes of private anonymous memory, zeroed by the kernel.
func sysMap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// sysUnmap returns a mapping sysMap made to the kernel.
func sysUnmap(b []byte) error { return syscall.Munmap(b) }

// sysRelease hands the whole pages of b, part of a mapping, back to the
// kernel ahead of the unmap: they leave RSS at once and read as zero.
func sysRelease(b []byte) error { return syscall.Madvise(b, syscall.MADV_DONTNEED) }
