package core

import (
	"sync/atomic"
	"unsafe"
)

// hugePageSize is the transparent huge page size of Linux on x86-64 and on
// arm64 with 4 KiB base pages.
const hugePageSize = 2 << 20

// hugeAdvised counts the bytes adviseHugePages has handed to madviseHuge,
// so tests can see which arrays were advised without asking the kernel
// what it granted.
var hugeAdvised atomic.Int64

// hugeSpan returns the 2 MiB-aligned interior of the n bytes at addr: its
// offset from addr and its length, a multiple of hugePageSize. The length
// is 0 when no aligned 2 MiB page fits inside.
func hugeSpan(addr, n uintptr) (off, length uintptr) {
	start := (addr + hugePageSize - 1) &^ (hugePageSize - 1)
	end := (addr + n) &^ (hugePageSize - 1)
	if start < addr || end <= start {
		return 0, 0
	}
	return start - addr, end - start
}

// adviseHugePages asks the kernel to back the aligned interior of a's
// backing array with huge pages, so that loads spread over a large table
// stop missing the TLB (DESIGN.md §6). It runs before the table writes the
// array, since a page already touched stays small. That gets huge pages at
// fault time only for memory fresh from the OS: when make reuses freed
// heap memory, the runtime clears it first, and the advice then takes
// effect only if khugepaged collapses the pages later. The advice also
// outlives the array: a freed table's range keeps it, and later memory
// there faults whole huge pages. The kernel's policy decides what is
// granted, and nothing is asked for an array too small to hold an aligned
// huge page.
func adviseHugePages[T any](a []T) {
	p := unsafe.Pointer(unsafe.SliceData(a))
	off, n := hugeSpan(uintptr(p), uintptr(cap(a))*unsafe.Sizeof(*new(T)))
	if n == 0 {
		return
	}
	hugeAdvised.Add(int64(n))
	madviseHuge(unsafe.Slice((*byte)(unsafe.Add(p, off)), n))
}
