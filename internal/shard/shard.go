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
	"time"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/telemetry"
)

// Inner is the table one shard wraps: a single-writer table exposing the
// pure read-only lookup path (so readers can run under the shard's read
// lock), its traced variant and the observability gauges (so telemetry can
// be fed from inside the critical sections), exactly-once iteration,
// capacity growth, derived-state repair, and snapshot serialization with
// the core kind byte that names its loader. Both core.Table and
// core.BlockedTable satisfy it.
type Inner interface {
	kv.Table
	Kind() uint8
	LookupReadOnly(key uint64) (uint64, bool)
	LookupReadOnlyTraced(key uint64) (value uint64, ok bool, offReads int64)
	CopyHistogram() []int
	StashFlags() (set, total int)
	Range(fn func(key, value uint64) bool)
	Grow(growFactor float64) error
	Repair() core.RepairReport
	io.WriterTo
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
	// must hold mu (read lock suffices for the pure read-only lookup path).
	//
	//mcvet:guardedby mu
	tab Inner

	// Read-path counters, updated atomically so readers need no extra
	// synchronization. The single-op mutation path needs no counters at
	// all: every Insert/Delete call bumps the inner table's stats exactly
	// once, so its write-lock acquisitions are derivable (see ShardStats).
	// Keeping the hot paths down to one or two atomics is what lets
	// sharding win even when lock contention is absent.
	singleLookups atomic.Int64 // per-op Lookup calls; each is one read-lock acquisition
	hits          atomic.Int64 // read-path hits, single and batched

	// Batch-path bookkeeping (off the per-key hot path: one update per
	// touched shard per batch).
	batchLookups   atomic.Int64 // keys answered through LookupBatch
	batchReadAcqs  atomic.Int64 // read-lock acquisitions by LookupBatch
	batchWriteOps  atomic.Int64 // keys mutated through InsertBatch/DeleteBatch
	batchWriteAcqs atomic.Int64 // write-lock acquisitions by InsertBatch/DeleteBatch

	_ [40]byte
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

	// sink, when non-nil, receives one telemetry event per operation. The
	// nil check is the whole disabled path: no timing, no meter snapshots,
	// no allocation (see BenchmarkTelemetryDisabled*).
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

// shardFor returns the shard owning key.
//
//mcvet:hotpath
func (s *Sharded) shardFor(key uint64) *state {
	return &s.shards[s.shardIndex(key)]
}

// AttachTelemetry wires a sink into every operation path and must be called
// before the table sees concurrent traffic (the field write is unsynchronized
// by design, to keep the per-op check a plain load). A nil sink detaches.
func (s *Sharded) AttachTelemetry(sink *telemetry.Sink) { s.sink = sink }

// offTotal reads the inner table's accumulated off-chip accesses. Callers
// must hold the shard's write lock (the meter is not atomic).
//
//mcvet:hotpath
func offTotal(m *memmodel.Meter) int64 { return m.OffChipReads + m.OffChipWrites }

// Insert stores key/value under the owning shard's write lock.
//
//mcvet:hotpath
func (s *Sharded) Insert(key, value uint64) kv.Outcome {
	si := s.shardIndex(key)
	sh := &s.shards[si]
	if s.sink == nil {
		sh.mu.Lock()
		out := sh.tab.Insert(key, value)
		sh.mu.Unlock()
		return out
	}
	start := time.Now()
	sh.mu.Lock()
	m := sh.tab.Meter()
	before := offTotal(m)
	out := sh.tab.Insert(key, value)
	off := offTotal(m) - before
	sh.mu.Unlock()
	s.sink.Record(telemetry.Event{
		Op: telemetry.OpInsert, Status: uint8(out.Status), Shard: int32(si),
		Kicks: int32(out.Kicks), OffChip: off, Nanos: int64(time.Since(start)),
		KeyHash: hashutil.Mix64(key),
	})
	return out
}

// InsertPathwise stores key/value through core.InsertPathwise, holding the
// owning shard's write lock for each stage and releasing it between path
// moves, so that shard's readers interleave even during long relocation
// chains. It must not overlap another mutation of the same shard.
func (s *Sharded) InsertPathwise(key, value uint64) kv.Outcome {
	si := s.shardIndex(key)
	sh := &s.shards[si]
	//mcvet:allow lockdiscipline tab is write-once at construction; InsertPathwise takes mu around every stage
	tab := sh.tab
	if s.sink == nil {
		return core.InsertPathwise(&sh.mu, tab, key, value)
	}
	start := time.Now()
	sh.mu.Lock()
	before := offTotal(sh.tab.Meter())
	sh.mu.Unlock()
	out := core.InsertPathwise(&sh.mu, tab, key, value)
	sh.mu.Lock()
	off := offTotal(sh.tab.Meter()) - before
	sh.mu.Unlock()
	s.sink.Record(telemetry.Event{
		Op: telemetry.OpInsert, Status: uint8(out.Status), Shard: int32(si),
		Kicks: int32(out.Kicks), OffChip: off, Nanos: int64(time.Since(start)),
		KeyHash: hashutil.Mix64(key),
	})
	return out
}

// Lookup runs under the owning shard's read lock via the pure read-only
// path; lookups on different shards never contend, and lookups on the same
// shard share the lock.
//
//mcvet:hotpath
func (s *Sharded) Lookup(key uint64) (uint64, bool) {
	si := s.shardIndex(key)
	sh := &s.shards[si]
	if s.sink == nil {
		sh.singleLookups.Add(1)
		sh.mu.RLock()
		v, ok := sh.tab.LookupReadOnly(key)
		sh.mu.RUnlock()
		if ok {
			sh.hits.Add(1)
		}
		return v, ok
	}
	start := time.Now()
	sh.singleLookups.Add(1)
	sh.mu.RLock()
	v, ok, off := sh.tab.LookupReadOnlyTraced(key)
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
	}
	s.sink.Record(telemetry.Event{
		Op: telemetry.OpLookup, Hit: ok, Shard: int32(si),
		OffChip: off, Nanos: int64(time.Since(start)),
		KeyHash: hashutil.Mix64(key),
	})
	return v, ok
}

// Delete removes key under the owning shard's write lock.
//
//mcvet:hotpath
func (s *Sharded) Delete(key uint64) bool {
	si := s.shardIndex(key)
	sh := &s.shards[si]
	if s.sink == nil {
		sh.mu.Lock()
		ok := sh.tab.Delete(key)
		sh.mu.Unlock()
		return ok
	}
	start := time.Now()
	sh.mu.Lock()
	m := sh.tab.Meter()
	before := offTotal(m)
	ok := sh.tab.Delete(key)
	off := offTotal(m) - before
	sh.mu.Unlock()
	s.sink.Record(telemetry.Event{
		Op: telemetry.OpDelete, Hit: ok, Shard: int32(si),
		OffChip: off, Nanos: int64(time.Since(start)),
		KeyHash: hashutil.Mix64(key),
	})
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
// counted concurrent lookups (the read path goes through LookupReadOnly,
// which by design charges no inner stats).
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
		total.StashProbe += st.StashProbe
		total.GrowAttempts += st.GrowAttempts
		total.Grows += st.Grows
		total.GrowFailures += st.GrowFailures
		total.Lookups += sh.singleLookups.Load() + sh.batchLookups.Load()
		total.Hits += sh.hits.Load()
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

// Gauges assembles the telemetry gauge snapshot: aggregate population and
// load, stash state, the copy-count distribution, the shard-balance extremes,
// and the merged lifetime stats, with the full per-shard breakdown as
// Detail. It is safe for concurrent use (everything is read under the shard
// locks) and is what NewSharded registers as the sink's live gauge source.
func (s *Sharded) Gauges() telemetry.Gauges {
	st := s.ShardStats()
	hist := s.CopyHistogram()
	copyHist := make([]int64, len(hist))
	for v, n := range hist {
		copyHist[v] = int64(n)
	}
	return telemetry.Gauges{
		Items:            st.Items,
		Capacity:         st.Capacity,
		LoadRatio:        st.LoadRatio,
		StashLen:         st.StashLen,
		StashFlagDensity: s.StashFlagDensity(),
		CopyHist:         copyHist,
		Shards:           len(s.shards),
		MinShardLoad:     st.MinLoad,
		MaxShardLoad:     st.MaxLoad,
		Ops:              s.Stats(),
		Detail:           st,
	}
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
