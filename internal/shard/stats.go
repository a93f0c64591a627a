package shard

import "mccuckoo/internal/kv"

// ShardStat is the observability snapshot of one shard: its population and
// load, its stash depth and flag density, the writer-side operation counts
// (including the kick-path work its inserts performed), the concurrent
// read-path counts, and how many times each side of its lock was acquired.
// The JSON field names are the stable wire contract of the
// /debug/mccuckoo/stats endpoint.
type ShardStat struct {
	Shard     int     `json:"shard"`
	Items     int     `json:"items"`
	Capacity  int     `json:"capacity"`
	LoadRatio float64 `json:"load_ratio"`
	StashLen  int     `json:"stash_len"`

	// StashFlagDensity is the fraction of this shard's buckets whose stash
	// flag is set (see core.StashFlagDensity, the single source of truth the
	// telemetry gauge aggregates).
	StashFlagDensity float64 `json:"stash_flag_density"`

	// Ops are the inner table's lifetime counts (writer side), except that
	// Ops.StashProbes also counts the read path's stash probes, so the
	// shards' Ops.StashProbes sum to Sharded.Stats().StashProbes. Ops.Kicks
	// is the shard's total kick-path length — the quantity per-shard
	// locking keeps short and local.
	Ops kv.Stats `json:"ops"`

	// Lookups/Hits count the concurrent read path. It runs the table's one
	// probe against a meter on the reader's stack, so it charges neither
	// the table's meter nor its stats, and the shard counts it here.
	Lookups int64 `json:"lookups"`
	Hits    int64 `json:"hits"`

	// ReadLocks/WriteLocks count operation-path lock acquisitions; a
	// batch op counts one acquisition per touched shard. Write-lock
	// acquisitions are derived (every Insert/Delete call charges the inner
	// stats exactly once) rather than counted on the hot path.
	ReadLocks  int64 `json:"read_locks"`
	WriteLocks int64 `json:"write_locks"`
}

// ShardStats aggregates the per-shard snapshots. MinLoad/MaxLoad expose the
// routing balance: with the salted finalizer routing, per-shard loads stay
// within binomial noise of each other. When every shard is empty (or the
// shard set itself is empty), MinLoad and MaxLoad are both exactly 0 — they
// never go negative or NaN — so dashboards can treat 0/0 as "idle table"
// without special-casing.
type ShardStats struct {
	Shards []ShardStat `json:"shards,omitempty"`

	Items     int     `json:"items"`
	Capacity  int     `json:"capacity"`
	LoadRatio float64 `json:"load_ratio"`
	MinLoad   float64 `json:"min_load"`
	MaxLoad   float64 `json:"max_load"`
	StashLen  int     `json:"stash_len"`

	Kicks      int64 `json:"kicks"`
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`
	ReadLocks  int64 `json:"read_locks"`
	WriteLocks int64 `json:"write_locks"`
}

// ShardStats captures a per-shard statistics snapshot. Each shard is read
// under its lock; the snapshot is consistent per shard, not atomically
// consistent across shards.
func (s *Sharded) ShardStats() ShardStats {
	out := ShardStats{Shards: make([]ShardStat, len(s.shards))}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		set, totalFlags := sh.tab.StashFlags()
		st := ShardStat{
			Shard:     i,
			Items:     sh.tab.Len(),
			Capacity:  sh.tab.Capacity(),
			LoadRatio: sh.tab.LoadRatio(),
			StashLen:  sh.tab.StashLen(),
			Ops:       sh.tab.Stats(),
		}
		sh.mu.RUnlock()
		if totalFlags > 0 {
			st.StashFlagDensity = float64(set) / float64(totalFlags)
		}
		st.Ops.StashProbes += sh.stashProbes.Load()
		singles := sh.singleLookups.Load()
		st.Lookups = singles + sh.batchLookups.Load()
		st.Hits = sh.hits.Load()
		st.ReadLocks = singles + sh.batchReadAcqs.Load()
		// Every single-op Insert/Delete call takes the write lock once and
		// charges the inner stats once; batch calls charge the inner stats
		// per key but the lock once per touched shard.
		st.WriteLocks = st.Ops.Inserts + st.Ops.Deletes - sh.batchWriteOps.Load() + sh.batchWriteAcqs.Load()
		out.Shards[i] = st

		out.Items += st.Items
		out.Capacity += st.Capacity
		out.StashLen += st.StashLen
		out.Kicks += st.Ops.Kicks
		out.Lookups += st.Ops.Lookups + st.Lookups
		out.Hits += st.Ops.Hits + st.Hits
		out.ReadLocks += st.ReadLocks
		out.WriteLocks += st.WriteLocks
		if i == 0 || st.LoadRatio < out.MinLoad {
			out.MinLoad = st.LoadRatio
		}
		if i == 0 || st.LoadRatio > out.MaxLoad {
			out.MaxLoad = st.LoadRatio
		}
	}
	if out.Capacity > 0 {
		out.LoadRatio = float64(out.Items) / float64(out.Capacity)
	}
	return out
}
