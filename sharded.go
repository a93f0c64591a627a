package mccuckoo

import (
	"fmt"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/shard"
	"mccuckoo/internal/telemetry"
)

// shardedStore is the one lock layer behind both thread-safe kinds: Sharded
// (N shards) and Concurrent (one shard around a Table or Blocked). It
// implements the BatchStore methods plus Range over internal/shard, where
// every shard is a core table behind its own reader/writer lock.
type shardedStore struct {
	inner *shard.Sharded
}

// attachTelemetry wires sink into the table (no-op for nil): every shard
// records its operations into sink, and sink's gauges are live — each
// scrape reads the current state under the per-shard locks, so no sampling
// call is needed.
func (s *shardedStore) attachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	s.inner.AttachTelemetry(sink)
	sink.SetGaugeSource(s.inner.Gauges)
}

// Insert stores key/value under the owning shard's write lock, replacing
// the value if key is already present (unless WithUniqueKeys was set).
func (s *shardedStore) Insert(key, value uint64) InsertResult {
	return fromOutcome(s.inner.Insert(key, value))
}

// Lookup returns the value stored for key under the owning shard's read
// lock: lookups on different shards never contend, and lookups on the same
// shard share its read lock.
func (s *shardedStore) Lookup(key uint64) (uint64, bool) { return s.inner.Lookup(key) }

// Delete removes key under the owning shard's write lock.
func (s *shardedStore) Delete(key uint64) bool { return s.inner.Delete(key) }

// InsertBatch stores every keys[i]/values[i] pair, grouping keys by shard
// and taking each touched shard's write lock once for the whole batch.
// Results come back in input order. len(values) must equal len(keys).
func (s *shardedStore) InsertBatch(keys, values []uint64) []InsertResult {
	res := make([]InsertResult, len(keys))
	s.InsertBatchInto(keys, values, res)
	return res
}

// LookupBatch answers every key, taking each touched shard's read lock
// once. values[i], found[i] correspond to keys[i].
func (s *shardedStore) LookupBatch(keys []uint64) (values []uint64, found []bool) {
	return s.inner.LookupBatch(keys)
}

// DeleteBatch removes every key, taking each touched shard's write lock
// once. removed[i] reports whether keys[i] was present.
func (s *shardedStore) DeleteBatch(keys []uint64) (removed []bool) {
	return s.inner.DeleteBatch(keys)
}

// Len returns the total number of live items across all shards.
func (s *shardedStore) Len() int { return s.inner.Len() }

// Capacity returns the summed bucket capacity of all shards.
func (s *shardedStore) Capacity() int { return s.inner.Capacity() }

// LoadRatio returns Len()/Capacity().
func (s *shardedStore) LoadRatio() float64 { return s.inner.LoadRatio() }

// StashLen returns the summed stash population of all shards.
func (s *shardedStore) StashLen() int { return s.inner.StashLen() }

// Stats returns operation counts aggregated over all shards.
func (s *shardedStore) Stats() Stats { return fromStats(s.inner.Stats()) }

// Range calls fn for every distinct live item until fn returns false. Each
// shard is iterated under its read lock, so every shard's view is
// internally consistent; the iteration is not an atomic snapshot across
// shards.
func (s *shardedStore) Range(fn func(key, value uint64) bool) { s.inner.Range(fn) }

// Sharded is an N-way hash-partitioned McCuckoo table, safe for concurrent
// use by any number of goroutines. It routes each key to one of N
// independent sub-tables (N a power of two), each behind its own
// reader/writer lock: writers on different shards proceed in parallel, and
// McCuckoo's counter-guided kick paths keep each shard's critical sections
// short. This is the table to use when multiple goroutines insert and
// delete under load; Concurrent is the same lock layer with one shard,
// around a table built with New or NewBlocked.
//
// Shard routing hashes the key with a dedicated salted finalizer and takes
// the top bits, while the d candidate buckets inside a shard come from the
// BOB hash family — so the shard choice never correlates with in-shard
// placement and shards stay binomially balanced.
type Sharded struct {
	shardedStore
}

// NewSharded creates a partitioned table of `shards` sub-tables (a power of
// two) with roughly `capacity` buckets in total. Options apply to every
// sub-table; each gets an independently derived hash seed.
func NewSharded(capacity, shards int, opts ...Option) (*Sharded, error) {
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("mccuckoo: shard count must be a power of two >= 1, got %d", shards)
	}
	if capacity < 8*shards {
		return nil, fmt.Errorf("mccuckoo: capacity %d too small for %d shards (need >= %d)",
			capacity, shards, 8*shards)
	}
	cfg, tel, err := buildConfig((capacity+shards-1)/shards, false, opts)
	if err != nil {
		return nil, err
	}
	baseSeed := cfg.Seed
	inner, err := shard.New(shards, baseSeed, func(i int) (shard.Inner, error) {
		scfg := cfg
		scfg.Seed = hashutil.Mix64(baseSeed + uint64(i)*0x9e3779b97f4a7c15)
		return core.New(scfg)
	})
	if err != nil {
		return nil, err
	}
	return newSharded(inner, tel), nil
}

// newSharded wraps inner and attaches tel (nil for none).
func newSharded(inner *shard.Sharded, tel *Telemetry) *Sharded {
	s := &Sharded{shardedStore{inner}}
	if tel != nil {
		s.attachTelemetry(tel.sink)
	}
	return s
}

// Shards returns the partition count.
func (s *Sharded) Shards() int { return s.inner.NumShards() }

// CopyHistogram returns how many items currently have 1, 2, ..., d copies
// (index 0 unused), merged across all shards; each shard is read under its
// read lock.
func (s *Sharded) CopyHistogram() []int { return s.inner.CopyHistogram() }

// StashFlagDensity returns the fraction of buckets (across all shards) whose
// stash flag is set — the false-positive pressure on the stash pre-screen.
func (s *Sharded) StashFlagDensity() float64 { return s.inner.StashFlagDensity() }

// ShardStat describes one shard: population, load, stash depth and flag
// density, kick-path work, read-path traffic, and lock-acquisition counts.
type ShardStat struct {
	Shard            int
	Items            int
	Capacity         int
	LoadRatio        float64
	StashLen         int
	StashFlagDensity float64
	Kicks            int64
	Lookups          int64
	Hits             int64
	ReadLocks        int64
	WriteLocks       int64
}

// ShardStats aggregates per-shard statistics. MinLoad/MaxLoad expose the
// routing balance across shards; when every shard is empty they are both
// exactly 0 (never negative or NaN), so 0/0 reads as "idle table".
type ShardStats struct {
	Shards     []ShardStat
	Items      int
	Capacity   int
	LoadRatio  float64
	MinLoad    float64
	MaxLoad    float64
	StashLen   int
	Kicks      int64
	Lookups    int64
	Hits       int64
	ReadLocks  int64
	WriteLocks int64
}

// ShardStats captures a per-shard statistics snapshot (consistent per
// shard, not atomically consistent across shards).
func (s *Sharded) ShardStats() ShardStats {
	st := s.inner.ShardStats()
	out := ShardStats{
		Shards:    make([]ShardStat, len(st.Shards)),
		Items:     st.Items,
		Capacity:  st.Capacity,
		LoadRatio: st.LoadRatio,
		MinLoad:   st.MinLoad,
		MaxLoad:   st.MaxLoad,
		StashLen:  st.StashLen,
		Kicks:     st.Kicks,
		Lookups:   st.Lookups,
		Hits:      st.Hits,
		ReadLocks: st.ReadLocks, WriteLocks: st.WriteLocks,
	}
	for i, sh := range st.Shards {
		out.Shards[i] = ShardStat{
			Shard:            sh.Shard,
			Items:            sh.Items,
			Capacity:         sh.Capacity,
			LoadRatio:        sh.LoadRatio,
			StashLen:         sh.StashLen,
			StashFlagDensity: sh.StashFlagDensity,
			Kicks:            sh.Ops.Kicks,
			Lookups:          sh.Ops.Lookups + sh.Lookups,
			Hits:             sh.Ops.Hits + sh.Hits,
			ReadLocks:        sh.ReadLocks, WriteLocks: sh.WriteLocks,
		}
	}
	return out
}
