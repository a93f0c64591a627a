// Package mccuckoo implements Multi-copy Cuckoo Hashing (McCuckoo, ICDE
// 2019): a cuckoo hash table that stores redundant copies of each item in all
// of its free candidate buckets and tracks the copy count of every bucket in
// a compact counter array kept in fast memory.
//
// The counters buy three things over standard cuckoo hashing:
//
//   - Insertions stop being blind. A bucket whose counter is greater than one
//     holds a redundant copy and can be overwritten immediately, so the table
//     sustains much higher load before any kick-out chain is needed, and the
//     chains that do happen are shorter.
//   - Lookups skip buckets that provably cannot hold the queried key: a zero
//     counter among the candidates means the key was never inserted (the
//     counter array doubles as a Bloom filter), and candidate partitions
//     with fewer members than their counter value cannot contain the key.
//   - Deletions never touch the main table: only counters are reset.
//
// Insertion failures overflow into a stash pre-screened by per-bucket flags,
// so the stash is consulted only when a key plausibly lives there.
//
// # Table flavours
//
// New builds the single-slot table (d hash functions, one item per bucket,
// d=3 by default). NewBlocked builds the blocked variant (l slots per bucket,
// 3×3 by default), which trades slightly weaker lookup filtering for load
// ratios close to 100%. Both are single-writer structures; NewSharded
// builds an N-way hash-partitioned table whose shards lock independently,
// with batched operations (InsertBatch/LookupBatch/DeleteBatch) that take
// each touched shard's lock once per batch, and NewConcurrent puts a Table
// or Blocked behind the same lock layer as one shard. Map adapts the table
// into a generic key/value map for arbitrary comparable key types.
//
// All four kinds satisfy the Store and BatchStore interfaces, so consumers
// — including the network serving layer in cmd/mcserved — are written once
// against the interface instead of per kind.
//
// # Concurrency
//
// The kinds differ only in their concurrency contract:
//
//   - Table and Blocked must be confined to one goroutine at a time. No
//     method is safe to call concurrently with any other, reads included
//     (lookups mutate the traffic meter).
//   - Concurrent is safe for any number of goroutines, except that
//     InsertPathwise must not overlap another mutation (it releases the
//     write lock between path moves). Lookups share a read lock; mutations
//     serialize. Its batches take the lock once per batch, as Sharded's do.
//   - Sharded is safe for unrestricted concurrent use by any number of
//     goroutines, for every method.
//
// NewConcurrent's SingleWriter constraint admits only *Table and *Blocked:
// wrapping an already-thread-safe kind (Sharded, or a Concurrent itself)
// is a compile error, because stacking a second lock on an internally
// synchronized table buys nothing and hides the real contract.
//
// # Instrumentation
//
// Every table counts its memory traffic — off-chip bucket reads/writes and
// on-chip counter accesses — mirroring the paper's target platform where the
// main table lives in slow external memory and the counters in on-chip SRAM.
// Traffic and operation statistics are available through the Traffic and
// Stats methods; cmd/mcbench regenerates every figure and table of the
// paper's evaluation from the same counters.
package mccuckoo
