package mccuckoo

import (
	"os"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/shard"
)

// Concurrent shares a Table or Blocked between goroutines (§III.H): it is
// the Sharded lock layer with one shard, so lookups run in parallel under
// the shared read lock and mutations serialize under the write lock. Every
// method is safe for any number of goroutines except InsertPathwise, which
// must not overlap another mutation. Batches take the lock once per batch.
type Concurrent struct {
	shardedStore
}

// SingleWriter is the constraint NewConcurrent accepts: exactly the table
// kinds that are NOT yet safe for concurrent use. Wrapping an
// already-thread-safe store (Sharded, or a Concurrent itself) would stack a
// redundant lock on top of its internal synchronization, so those kinds are
// rejected at compile time — `NewConcurrent(sharded)` does not build.
type SingleWriter interface {
	*Table | *Blocked
	single() *singleStore
}

// NewConcurrent wraps t for concurrent use; t must not be used directly
// afterwards. t is the result of New or NewBlocked. The SingleWriter
// constraint makes wrapping a thread-safe kind a compile error rather than
// a silent double-locking bug. Telemetry attached to t carries over: every
// operation is recorded, and the gauges become live.
func NewConcurrent[T SingleWriter](t T) *Concurrent {
	s := t.single()
	inner, err := shard.New(1, 0, func(int) (shard.Inner, error) { return s.inner, nil })
	if err != nil {
		panic(err) // unreachable: one shard around a table New or NewBlocked built
	}
	c := &Concurrent{shardedStore{inner}}
	c.attachTelemetry(s.sink)
	return c
}

// InsertPathwise inserts with bounded writer critical sections: the cuckoo
// path executes one move at a time, releasing the write lock between moves
// so readers interleave even during long relocation chains. It must not
// overlap another mutation (Insert, Delete, a batch, or another
// InsertPathwise).
func (c *Concurrent) InsertPathwise(key, value uint64) InsertResult {
	return fromOutcome(c.inner.InsertPathwise(key, value))
}

// SaveFile writes a crash-safe snapshot of the wrapped table to path, in
// that table's own format: LoadFile restores a wrapped Table, and
// LoadBlockedFile a wrapped Blocked. The table is serialized under the read
// lock, so lookups proceed and mutations wait.
func (c *Concurrent) SaveFile(path string) error {
	return atomicio.WriteFile(path, func(f *os.File) error {
		_, err := c.inner.WriteShardTo(0, f)
		return err
	})
}
