// Package keep holds the keep rule (DESIGN.md §10): the one bound on what a
// long-lived owner (a served connection, a pooled client connection, a
// replicator stream, the lock layer's batch pool) may hold between uses of a
// reusable buffer. Steady traffic fits the bound and reuses its buffers; a
// buffer grown for one large frame or batch goes to the GC after its use
// instead of staying pinned for the owner's lifetime.
package keep

import "unsafe"

// Bytes is the keep rule's bound on a parked buffer's backing array. Every
// single-key frame fits, as do a 16-key batch and an op-log chunk of up to
// 162 entries on the wire, and the lock layer's grouping buffer for a batch
// of up to about 500 keys.
const Bytes = 4 << 10

// Slice applies the keep rule to a buffer about to be parked until its next
// use: it returns s emptied for reuse when its backing array is at most
// Bytes, and nil otherwise.
func Slice[T any](s []T) []T {
	if uintptr(cap(s))*unsafe.Sizeof(*new(T)) > Bytes {
		return nil
	}
	return s[:0]
}
