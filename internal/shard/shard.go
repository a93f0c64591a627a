// Package shard is the lock layer of the repository: an N-way
// hash-partitioned concurrent McCuckoo table, each partition a core table
// behind its own sync.RWMutex. With one shard it is the §III.H
// one-writer-many-readers mode: lookups share the read lock, mutations take
// the write lock. With N shards, writers on different shards proceed in
// parallel while each shard's critical sections stay exactly as short as
// McCuckoo's counter-guided kick paths make them (the combination Kuszmaul's
// concurrent kick-out schemes argue for).
//
// The paper suggests MemC3-style optimistic versioned reads; in Go that
// pattern is a data race by the memory model (readers would observe torn
// bucket writes), so the honest equivalent is a reader/writer lock: the same
// concurrency structure with defined behaviour.
//
// Shard routing uses the top bits of a dedicated splitmix64 finalizer over
// the key, salted per table. The in-shard candidate buckets come from BOB
// hash with per-shard seeds, a different hash family entirely, so the shard
// choice never correlates with the d candidate buckets inside a shard and
// per-shard load stays binomially balanced.
package shard

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/telemetry"
)

// Inner is the table one shard wraps: a single-writer table exposing its
// read-only lookup (the probe Lookup runs, charged to a meter on the
// reader's stack; it reports the off-chip reads and whether it consulted
// the stash, which the shard counts, so readers share the read lock), the
// observability gauges, exactly-once iteration, capacity growth,
// derived-state repair, and snapshot serialization with the core kind byte
// that names its loader. Both core.Table and core.BlockedTable satisfy it.
type Inner interface {
	kv.Table
	Kind() uint8
	LookupReadOnlyTraced(key uint64) (value uint64, ok, stashProbed bool, offReads int64)
	CopyHistogram() []int
	StashFlags() (set, total int)
	Range(fn func(key, value uint64) bool)
	Grow(growFactor float64) error
	Repair() core.RepairReport
	io.WriterTo
	SnapshotLen() uint64
	WriteSnapshot(out *atomicio.Writer) (int64, error)
}

// MaxShards bounds the shard count; beyond this the per-shard fixed
// overhead (locks, stashes, hash families) dominates any contention win.
const MaxShards = 1 << 16

// state is one shard: an inner table, its lock, and its contention
// counters. The trailing padding keeps neighbouring shards' locks on
// separate cache lines so lock traffic on one shard does not false-share
// with its neighbours.
type state struct {
	mu sync.RWMutex
	// tab is installed once by New and never reassigned; every call into it
	// must hold mu (read lock suffices for LookupReadOnlyTraced).
	//
	//mcvet:guardedby mu
	tab Inner
	// meter is tab's meter, cached by New so that recording an operation
	// reads it without a call through tab. The pointer never changes (Grow
	// and Repair rebuild a core table in place); the counts behind it are
	// written under mu's write lock.
	meter *memmodel.Meter

	// Read-path counters, updated atomically so readers need no extra
	// synchronization. The single-op mutation path needs no counters at
	// all: every Insert/Delete call bumps the inner table's stats exactly
	// once, so its write-lock acquisitions are derivable (see ShardStats).
	// Keeping the hot paths down to one or two atomics is what lets
	// sharding win even when lock contention is absent.
	singleLookups atomic.Int64 // per-op Lookup calls; each is one read-lock acquisition
	hits          atomic.Int64 // read-path hits, single and batched
	stashProbes   atomic.Int64 // read-path lookups that consulted the stash

	// Batch-path bookkeeping (off the per-key hot path: one update per
	// touched shard per batch).
	batchLookups   atomic.Int64 // keys answered through LookupBatchInto
	batchReadAcqs  atomic.Int64 // read-lock acquisitions by LookupBatchInto
	batchWriteOps  atomic.Int64 // keys mutated through InsertBatchInto/DeleteBatchInto
	batchWriteAcqs atomic.Int64 // write-lock acquisitions by InsertBatchInto/DeleteBatchInto

	_ [32]byte
}

// Sharded is the partitioned table. All methods are safe for concurrent
// use by any number of goroutines.
type Sharded struct {
	shift  uint   // 64 - log2(len(shards)); top bits of the route hash
	salt   uint64 // routing salt, derived from the seed
	seed   uint64 // the seed New was given, recorded for snapshots
	shards []state

	// agg backs Meter(): the element-wise sum of the shard meters,
	// refreshed on each call.
	agg memmodel.Meter

	// scratchPool recycles the batched operations' int32 grouping buffers
	// (see groupByShard) under the keep rule: it holds only buffers of at
	// most keep.Bytes, so steady small batches allocate nothing and no
	// batch-sized buffer is parked.
	scratchPool sync.Pool

	// sink, when non-nil, receives one telemetry event per operation. Its
	// recording calls inline to nil checks, so the disabled path reads no
	// clock and allocates nothing (TestDisabledPathZeroAlloc).
	sink *telemetry.Sink
}

// New builds a table of `shards` partitions (a power of two), each wrapping
// the table returned by build. The seed salts the shard routing hash; build
// receives the shard index so it can derive independent per-shard seeds.
func New(shards int, seed uint64, build func(shard int) (Inner, error)) (*Sharded, error) {
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("shard: shard count must be a power of two >= 1, got %d", shards)
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d exceeds limit %d", shards, MaxShards)
	}
	s := &Sharded{
		shift:  uint(64 - bits.TrailingZeros(uint(shards))),
		salt:   hashutil.Mix64(seed ^ 0x5ca1ab1e_0ddba11),
		seed:   seed,
		shards: make([]state, shards),
	}
	for i := range s.shards {
		tab, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		if tab == nil {
			return nil, fmt.Errorf("shard: build returned nil table for shard %d", i)
		}
		s.shards[i].tab = tab //mcvet:allow lockdiscipline construction precedes publication; no reader can hold a shard lock yet
		s.shards[i].meter = tab.Meter()
	}
	return s, nil
}

// NumShards returns the partition count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// shardIndex routes a key to its shard: the top bits of a salted splitmix64
// finalizer. For a single shard the shift is 64 and the index is always 0
// (Go defines over-wide unsigned shifts as zero).
//
//mcvet:hotpath
func (s *Sharded) shardIndex(key uint64) int {
	return int(hashutil.Mix64(key^s.salt) >> s.shift)
}

// AttachTelemetry wires a sink into every operation path and must be called
// before the table sees concurrent traffic (the field write is unsynchronized
// by design, to keep the per-op check a plain load). A nil sink detaches.
func (s *Sharded) AttachTelemetry(sink *telemetry.Sink) { s.sink = sink }

// Insert stores key/value under the owning shard's write lock.
//
//mcvet:hotpath
func (s *Sharded) Insert(key, value uint64) kv.Outcome {
	si := s.shardIndex(key)
	sh := &s.shards[si]
	sink := s.sink
	start := sink.Start()
	sh.mu.Lock()
	before := sink.OffChip(sh.meter)
	out := sh.tab.Insert(key, value)
	off := sink.OffChip(sh.meter) - before
	sh.mu.Unlock()
	sink.RecordInsert(si, key, out, off, start)
	return out
}

// InsertPathwise stores key/value through core.InsertPathwise, holding the
// owning shard's write lock for each stage and releasing it between path
// moves, so that shard's readers interleave even during long relocation
// chains. It must not overlap another mutation of the same shard.
func (s *Sharded) InsertPathwise(key, value uint64) kv.Outcome {
	si := s.shardIndex(key)
	sh := &s.shards[si]
	sink := s.sink
	start := sink.Start()
	before := sink.OffChipLocked(&sh.mu, sh.meter)
	//mcvet:allow lockdiscipline tab is write-once at construction; InsertPathwise takes mu around every stage
	out := core.InsertPathwise(&sh.mu, sh.tab, key, value)
	off := sink.OffChipLocked(&sh.mu, sh.meter) - before
	sink.RecordInsert(si, key, out, off, start)
	return out
}

// Lookup runs the table's probe under the owning shard's read lock; lookups
// on different shards never contend, and lookups on the same shard share the
// lock.
//
//mcvet:hotpath
func (s *Sharded) Lookup(key uint64) (uint64, bool) {
	si := s.shardIndex(key)
	sh := &s.shards[si]
	sink := s.sink
	start := sink.Start()
	sh.singleLookups.Add(1)
	sh.mu.RLock()
	v, ok, probed, off := sh.tab.LookupReadOnlyTraced(key)
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
	}
	if probed {
		sh.stashProbes.Add(1)
	}
	sink.RecordLookup(si, key, ok, off, start)
	return v, ok
}

// Delete removes key under the owning shard's write lock.
//
//mcvet:hotpath
func (s *Sharded) Delete(key uint64) bool {
	si := s.shardIndex(key)
	sh := &s.shards[si]
	sink := s.sink
	start := sink.Start()
	sh.mu.Lock()
	before := sink.OffChip(sh.meter)
	ok := sh.tab.Delete(key)
	off := sink.OffChip(sh.meter) - before
	sh.mu.Unlock()
	sink.RecordDelete(si, key, ok, off, start)
	return ok
}

// Len returns the total number of live items across shards. Each shard is
// read under its lock; the sum is not a single atomic cross-shard snapshot.
func (s *Sharded) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.tab.Len()
		sh.mu.RUnlock()
	}
	return total
}

// Capacity returns the summed bucket capacity of all shards.
func (s *Sharded) Capacity() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.tab.Capacity()
		sh.mu.RUnlock()
	}
	return total
}

// LoadRatio returns Len()/Capacity() across all shards.
func (s *Sharded) LoadRatio() float64 {
	c := s.Capacity()
	if c == 0 {
		return 0
	}
	return float64(s.Len()) / float64(c)
}

// StashLen returns the summed stash population of all shards.
func (s *Sharded) StashLen() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.tab.StashLen()
		sh.mu.RUnlock()
	}
	return total
}

// Stats merges the writer-side stats of every shard with the atomically
// counted read path: its lookups, hits and stash probes (LookupReadOnlyTraced
// charges no inner stats, so the shard counts them).
func (s *Sharded) Stats() kv.Stats {
	var total kv.Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st := sh.tab.Stats()
		sh.mu.RUnlock()
		total.Inserts += st.Inserts
		total.Updates += st.Updates
		total.Kicks += st.Kicks
		total.Stashed += st.Stashed
		total.Failures += st.Failures
		total.Lookups += st.Lookups
		total.Hits += st.Hits
		total.Deletes += st.Deletes
		total.StashProbes += st.StashProbes
		total.GrowAttempts += st.GrowAttempts
		total.Grows += st.Grows
		total.GrowFailures += st.GrowFailures
		total.Lookups += sh.singleLookups.Load() + sh.batchLookups.Load()
		total.Hits += sh.hits.Load()
		total.StashProbes += sh.stashProbes.Load()
	}
	return total
}

// Grow grows every shard by growFactor, each under its own write lock.
// Shards grow independently — a failure in one shard stops the sweep and is
// returned, with earlier shards already grown (each shard is individually
// consistent throughout).
func (s *Sharded) Grow(growFactor float64) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.tab.Grow(growFactor)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard: growing shard %d: %w", i, err)
		}
	}
	return nil
}

// Repair runs core repair on every shard under its write lock and returns
// the merged report. Shards are repaired one at a time; the table stays
// serving on all other shards throughout. The merged report is recorded to
// the attached telemetry sink, if any.
func (s *Sharded) Repair() core.RepairReport {
	var rep core.RepairReport
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		r := sh.tab.Repair()
		sh.mu.Unlock()
		rep = rep.Merge(r)
	}
	s.sink.RecordRepair(rep)
	return rep
}

// CopyHistogram returns the merged redundancy distribution: how many live
// items across all shards currently have 1, 2, ..., d copies (index 0
// unused). Each shard is read under its read lock; the merge is not an
// atomic cross-shard snapshot. The slice length follows the largest
// per-shard histogram (d+1 for homogeneous shards).
func (s *Sharded) CopyHistogram() []int {
	var out []int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		h := sh.tab.CopyHistogram()
		sh.mu.RUnlock()
		if len(h) > len(out) {
			grown := make([]int, len(h))
			copy(grown, out)
			out = grown
		}
		for v, n := range h {
			out[v] += n
		}
	}
	return out
}

// StashFlags returns the summed set and total stash-flag bits across all
// shards.
func (s *Sharded) StashFlags() (set, total int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		fs, ft := sh.tab.StashFlags()
		sh.mu.RUnlock()
		set += fs
		total += ft
	}
	return set, total
}

// StashFlagDensity returns the aggregate fraction of buckets with the stash
// flag set, weighting every shard by its true flag count.
func (s *Sharded) StashFlagDensity() float64 {
	set, total := s.StashFlags()
	if total == 0 {
		return 0
	}
	return float64(set) / float64(total)
}

// Gauges assembles the telemetry gauge snapshot: telemetry.GaugesOf the
// whole table (population, load, stash state, the merged copy-count
// distribution and lifetime stats) plus the shard count, the shard-balance
// extremes, and the full per-shard breakdown as Detail. It is safe for
// concurrent use (everything is read under the shard locks) and is what
// NewSharded registers as the sink's live gauge source.
func (s *Sharded) Gauges() telemetry.Gauges {
	st := s.ShardStats()
	g := telemetry.GaugesOf(s)
	g.Shards, g.MinShardLoad, g.MaxShardLoad, g.Detail = len(s.shards), st.MinLoad, st.MaxLoad, st
	return g
}

// Meter returns the element-wise sum of all shard meters, refreshed at call
// time. Quiesce writers (or accept a racy snapshot) before reading it; the
// returned pointer stays valid and is overwritten by the next call.
func (s *Sharded) Meter() *memmodel.Meter {
	var sum memmodel.Meter
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sum = sum.Add(sh.tab.Meter().Snapshot())
		sh.mu.RUnlock()
	}
	s.agg = sum
	return &s.agg
}

// Range calls fn for every distinct live item until fn returns false. Each
// shard is iterated under its read lock, so the view of every individual
// shard is consistent; the iteration is not an atomic snapshot across
// shards (items moving between calls may be seen in neither or both shards'
// windows — within one shard, exactly-once reporting holds).
func (s *Sharded) Range(fn func(key, value uint64) bool) {
	stopped := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.tab.Range(func(k, v uint64) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		sh.mu.RUnlock()
		if stopped {
			return
		}
	}
}

var _ kv.Table = (*Sharded)(nil)
