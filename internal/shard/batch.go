package shard

import (
	"time"

	"mccuckoo/internal/keep"
	"mccuckoo/internal/kv"
)

// Batched operations amortize lock traffic: keys are bucket-sorted by
// destination shard first, then each touched shard's lock is taken exactly
// once for the whole batch instead of once per key. Results come back in
// input order. Under contention this turns k lock acquisitions into at most
// min(k, NumShards()) and keeps every shard's critical section one
// contiguous run of its keys.
//
// The Into variants write results through caller-owned slices so a replay
// loop can reuse its buffers across batches; the plain forms allocate fresh
// result slices per call. The grouping buffer obeys the keep rule
// (internal/keep): a batch whose buffer fits keep.Bytes, about 500 keys at 8
// shards, reuses one from a per-table sync.Pool and allocates nothing, and a
// larger batch allocates a buffer of its own that the GC takes back once the
// call returns, so no batch-sized buffer outlives its batch.

// Telemetry: when a sink is attached, every batched key is recorded as its
// own event (kind, outcome, off-chip accesses, shard) so the histograms and
// the flight recorder see batched traffic exactly like single-op traffic.
// Batched keys are recorded with the zero start time, so their events carry
// Nanos == 0 — individual keys inside a batch are not timed, and they
// contribute to every histogram except latency.

// groupInts is the length of a pooled grouping buffer: the keep bound's
// worth of int32s.
const groupInts = keep.Bytes / 4

// scratch returns a grouping buffer with room for need int32s: a pooled one
// when need fits the keep bound, else one of the batch's own.
//
//mcvet:hotpath
func (s *Sharded) scratch(need int) *[]int32 {
	var p *[]int32
	if need <= groupInts {
		p, _ = s.scratchPool.Get().(*[]int32)
	}
	if p == nil {
		b := make([]int32, max(need, groupInts)) //mcvet:allow hotpathalloc pool miss or a batch past the keep bound; zero allocations in steady state
		p = &b
	}
	return p
}

// release returns a grouping buffer to the pool if the keep rule keeps it.
func (s *Sharded) release(p *[]int32) {
	if keep.Slice(*p) != nil {
		s.scratchPool.Put(p)
	}
}

// groupByShard bucket-sorts the positions of keys by destination shard.
// order holds key positions grouped by shard; shard i owns positions
// order[start[i]:start[i+1]]. Both returned slices alias buf, which the
// caller hands back to release when done.
//
//mcvet:hotpath
func (s *Sharded) groupByShard(keys []uint64, buf *[]int32) (order []int32, start []int32) {
	n := len(s.shards)
	// One backing array for all four working slices: order, per-key shard
	// ids, the n+1 prefix sums, and the n fill cursors.
	b := (*buf)[:2*len(keys)+2*n+1]
	order = b[:len(keys)]
	shardOf := b[len(keys) : 2*len(keys)]
	start = b[2*len(keys) : 2*len(keys)+n+1]
	next := b[2*len(keys)+n+1:]
	for i := range start {
		start[i] = 0
	}
	for i, k := range keys {
		sh := int32(s.shardIndex(k))
		shardOf[i] = sh
		start[sh+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	copy(next, start[:n])
	for i := range keys {
		sh := shardOf[i]
		order[next[sh]] = int32(i)
		next[sh]++
	}
	return order, start
}

// InsertBatch stores every keys[i]/values[i] pair, taking each touched
// shard's write lock once. The i-th outcome corresponds to the i-th key.
// len(values) must equal len(keys).
func (s *Sharded) InsertBatch(keys, values []uint64) []kv.Outcome {
	out := make([]kv.Outcome, len(keys))
	s.InsertBatchInto(keys, values, out)
	return out
}

// InsertBatchInto is InsertBatch writing outcomes into out, which must be
// nil (discard outcomes) or exactly len(keys) long.
func (s *Sharded) InsertBatchInto(keys, values []uint64, out []kv.Outcome) {
	InsertBatchAs(s, keys, values, out, sameOutcome)
}

// sameOutcome is InsertBatchInto's conv: the outcome as it is.
func sameOutcome(o kv.Outcome) kv.Outcome { return o }

// InsertBatchAs is InsertBatchInto for a caller whose results are not
// kv.Outcomes: conv turns each outcome into out's element type as the shard
// produces it, so no outcome buffer stands between the shard and out.
//
//mcvet:hotpath
func InsertBatchAs[R any](s *Sharded, keys, values []uint64, out []R, conv func(kv.Outcome) R) {
	if len(keys) != len(values) {
		panic("shard: InsertBatch called with mismatched key/value lengths")
	}
	if out != nil && len(out) != len(keys) {
		panic("shard: InsertBatchInto outcome slice has wrong length")
	}
	if len(keys) == 0 {
		return
	}
	sink := s.sink
	if len(keys) == 1 {
		si := s.shardIndex(keys[0])
		sh := &s.shards[si]
		sh.batchWriteOps.Add(1)
		sh.batchWriteAcqs.Add(1)
		sh.mu.Lock()
		before := sink.OffChip(sh.meter)
		o := sh.tab.Insert(keys[0], values[0])
		off := sink.OffChip(sh.meter) - before
		sh.mu.Unlock()
		sink.RecordInsert(si, keys[0], o, off, time.Time{})
		if out != nil {
			out[0] = conv(o)
		}
		return
	}
	buf := s.scratch(2*len(keys) + 2*len(s.shards) + 1)
	order, start := s.groupByShard(keys, buf)
	for shi := range s.shards {
		lo, hi := start[shi], start[shi+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[shi]
		sh.batchWriteOps.Add(int64(hi - lo))
		sh.batchWriteAcqs.Add(1)
		sh.mu.Lock()
		for _, i := range order[lo:hi] {
			before := sink.OffChip(sh.meter)
			o := sh.tab.Insert(keys[i], values[i])
			sink.RecordInsert(shi, keys[i], o, sink.OffChip(sh.meter)-before, time.Time{})
			if out != nil {
				out[i] = conv(o)
			}
		}
		sh.mu.Unlock()
	}
	s.release(buf)
}

// LookupBatch answers every key, taking each touched shard's read lock
// once. values[i], found[i] correspond to keys[i].
func (s *Sharded) LookupBatch(keys []uint64) (values []uint64, found []bool) {
	values = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	s.LookupBatchInto(keys, values, found)
	return values, found
}

// LookupBatchInto is LookupBatch writing answers into values and found,
// each of which must be exactly len(keys) long.
//
//mcvet:hotpath
func (s *Sharded) LookupBatchInto(keys []uint64, values []uint64, found []bool) {
	if len(values) != len(keys) || len(found) != len(keys) {
		panic("shard: LookupBatchInto result slices have wrong length")
	}
	if len(keys) == 0 {
		return
	}
	sink := s.sink
	if len(keys) == 1 {
		si := s.shardIndex(keys[0])
		sh := &s.shards[si]
		sh.batchLookups.Add(1)
		sh.batchReadAcqs.Add(1)
		sh.mu.RLock()
		v, ok, probed, off := sh.tab.LookupReadOnlyTraced(keys[0])
		sh.mu.RUnlock()
		values[0], found[0] = v, ok
		if ok {
			sh.hits.Add(1)
		}
		if probed {
			sh.stashProbes.Add(1)
		}
		sink.RecordLookup(si, keys[0], ok, off, time.Time{})
		return
	}
	buf := s.scratch(2*len(keys) + 2*len(s.shards) + 1)
	order, start := s.groupByShard(keys, buf)
	for shi := range s.shards {
		lo, hi := start[shi], start[shi+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[shi]
		sh.batchLookups.Add(int64(hi - lo))
		sh.batchReadAcqs.Add(1)
		hits, probes := int64(0), int64(0)
		sh.mu.RLock()
		for _, i := range order[lo:hi] {
			v, ok, probed, off := sh.tab.LookupReadOnlyTraced(keys[i])
			sink.RecordLookup(shi, keys[i], ok, off, time.Time{})
			values[i], found[i] = v, ok
			if ok {
				hits++
			}
			if probed {
				probes++
			}
		}
		sh.mu.RUnlock()
		sh.hits.Add(hits)
		sh.stashProbes.Add(probes)
	}
	s.release(buf)
}

// DeleteBatch removes every key, taking each touched shard's write lock
// once. removed[i] reports whether keys[i] was present.
func (s *Sharded) DeleteBatch(keys []uint64) (removed []bool) {
	removed = make([]bool, len(keys))
	s.DeleteBatchInto(keys, removed)
	return removed
}

// DeleteBatchInto is DeleteBatch writing results into removed, which must
// be nil (discard results) or exactly len(keys) long.
//
//mcvet:hotpath
func (s *Sharded) DeleteBatchInto(keys []uint64, removed []bool) {
	if removed != nil && len(removed) != len(keys) {
		panic("shard: DeleteBatchInto result slice has wrong length")
	}
	if len(keys) == 0 {
		return
	}
	sink := s.sink
	if len(keys) == 1 {
		si := s.shardIndex(keys[0])
		sh := &s.shards[si]
		sh.batchWriteOps.Add(1)
		sh.batchWriteAcqs.Add(1)
		sh.mu.Lock()
		before := sink.OffChip(sh.meter)
		ok := sh.tab.Delete(keys[0])
		off := sink.OffChip(sh.meter) - before
		sh.mu.Unlock()
		sink.RecordDelete(si, keys[0], ok, off, time.Time{})
		if removed != nil {
			removed[0] = ok
		}
		return
	}
	buf := s.scratch(2*len(keys) + 2*len(s.shards) + 1)
	order, start := s.groupByShard(keys, buf)
	for shi := range s.shards {
		lo, hi := start[shi], start[shi+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[shi]
		sh.batchWriteOps.Add(int64(hi - lo))
		sh.batchWriteAcqs.Add(1)
		sh.mu.Lock()
		for _, i := range order[lo:hi] {
			before := sink.OffChip(sh.meter)
			ok := sh.tab.Delete(keys[i])
			sink.RecordDelete(shi, keys[i], ok, sink.OffChip(sh.meter)-before, time.Time{})
			if removed != nil {
				removed[i] = ok
			}
		}
		sh.mu.Unlock()
	}
	s.release(buf)
}
