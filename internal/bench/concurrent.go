package bench

import (
	"fmt"
	"sync"
	"time"

	"mccuckoo"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/metrics"
	"mccuckoo/internal/workload"
)

// ConcurrentOptions parameterizes the concurrent throughput sweep: a mixed
// read/write trace replayed from increasing goroutine counts against a
// Concurrent table (one lock, the global-lock baseline) and against Sharded
// tables of increasing shard counts. Unlike the paper experiments (which
// count memory accesses), this sweep measures wall-clock throughput — it
// exists to size the sharding win on real hardware, so results vary with
// the machine.
type ConcurrentOptions struct {
	// Capacity is the total bucket count of every table variant.
	Capacity int
	// Ops is the length of the mixed trace replayed per configuration.
	Ops int
	// Goroutines are the replay parallelism levels swept.
	Goroutines []int
	// Shards are the shard counts swept for the Sharded table; the
	// global-lock baseline always runs too.
	Shards []int
	// Batch, when positive, adds a second series per shard count that
	// replays through the batched APIs in key-affine-reordered batches of
	// at most Batch keys (workload.GroupBatches). Sharded only; the
	// global-lock baseline runs per-op.
	Batch int
	// Reps is how many times each configuration is replayed; the best run
	// is reported, the standard way to strip scheduler noise from
	// wall-clock microbenchmarks.
	Reps int
	// Seed derives the trace and all table seeds.
	Seed uint64
	// InsertWeight/LookupWeight/DeleteWeight shape the mix (normalized);
	// NegativeShare is the fraction of lookups that target absent keys.
	InsertWeight, LookupWeight, DeleteWeight float64
	NegativeShare                            float64
}

// DefaultConcurrentOptions returns laptop-scale defaults: ~196k buckets,
// 600k ops of a 25/65/10 insert/lookup/delete mix, with a batched series at
// 64-key batches alongside the per-op series.
func DefaultConcurrentOptions() ConcurrentOptions {
	return ConcurrentOptions{
		Capacity:     3 * 65536,
		Ops:          600_000,
		Goroutines:   []int{1, 2, 4, 8},
		Shards:       []int{4, 16},
		Batch:        64,
		Reps:         3,
		Seed:         1,
		InsertWeight: 2.5, LookupWeight: 6.5, DeleteWeight: 1,
		NegativeShare: 0.1,
	}
}

func (o *ConcurrentOptions) normalize() error {
	d := DefaultConcurrentOptions()
	if o.Capacity == 0 {
		o.Capacity = d.Capacity
	}
	if o.Ops == 0 {
		o.Ops = d.Ops
	}
	if len(o.Goroutines) == 0 {
		o.Goroutines = d.Goroutines
	}
	if len(o.Shards) == 0 {
		o.Shards = d.Shards
	}
	if o.InsertWeight == 0 && o.LookupWeight == 0 && o.DeleteWeight == 0 {
		o.InsertWeight, o.LookupWeight, o.DeleteWeight = d.InsertWeight, d.LookupWeight, d.DeleteWeight
		o.NegativeShare = d.NegativeShare
	}
	if o.Reps == 0 {
		o.Reps = d.Reps
	}
	if o.Reps < 1 {
		return fmt.Errorf("bench: Reps must be positive, got %d", o.Reps)
	}
	if o.Capacity < 3*64 {
		return fmt.Errorf("bench: concurrent capacity %d too small", o.Capacity)
	}
	if o.Ops < 1 {
		return fmt.Errorf("bench: Ops must be positive")
	}
	for _, g := range o.Goroutines {
		if g < 1 {
			return fmt.Errorf("bench: goroutine counts must be positive, got %d", g)
		}
	}
	for _, n := range o.Shards {
		if n < 1 || n&(n-1) != 0 {
			return fmt.Errorf("bench: shard counts must be powers of two, got %d", n)
		}
	}
	if o.Batch < 0 {
		return fmt.Errorf("bench: Batch must be non-negative, got %d", o.Batch)
	}
	return nil
}

// Both contenders are driven through the public mccuckoo.Store interface —
// the same surface every other consumer (mcserved, mctrace) binds, so the
// sweep measures exactly what a user of the package would see.

// buildGlobal builds the global-lock baseline: one single-slot table behind
// Concurrent's one RWMutex.
func buildGlobal(o ConcurrentOptions) (mccuckoo.Store, error) {
	inner, err := mccuckoo.New(o.Capacity,
		mccuckoo.WithSeed(hashutil.Mix64(o.Seed^0x910ba1)))
	if err != nil {
		return nil, err
	}
	return mccuckoo.NewConcurrent(inner), nil
}

// buildSharded builds an n-shard partitioned table at matched total
// capacity.
func buildSharded(o ConcurrentOptions, n int) (*mccuckoo.Sharded, error) {
	return mccuckoo.NewSharded(o.Capacity, n, mccuckoo.WithSeed(o.Seed))
}

// replayOps drives the per-goroutine op streams against tab one operation
// at a time and returns the wall-clock throughput in Mops/s.
func replayOps(tab mccuckoo.Store, streams [][]workload.Op) float64 {
	total := 0
	for _, st := range streams {
		total += len(st)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, st := range streams {
		wg.Add(1)
		go func(ops []workload.Op) {
			defer wg.Done()
			for _, op := range ops {
				switch op.Kind {
				case workload.OpInsert:
					tab.Insert(op.Key, op.Key)
				case workload.OpLookup:
					tab.Lookup(op.Key)
				case workload.OpDelete:
					tab.Delete(op.Key)
				}
			}
		}(st)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(total) / elapsed.Seconds() / 1e6
}

// replayBatched drives pre-grouped batch streams through the public
// allocation-free BatchStore Into APIs and returns Mops/s over the
// underlying key count. Batch construction is trace preparation and happens
// before the clock starts, same as op-stream construction for replayOps.
func replayBatched(s mccuckoo.BatchStore, streams [][]workload.Batch, maxBatch int) float64 {
	total := 0
	for _, st := range streams {
		for _, b := range st {
			total += len(b.Keys)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, st := range streams {
		wg.Add(1)
		go func(batches []workload.Batch) {
			defer wg.Done()
			values := make([]uint64, maxBatch)
			found := make([]bool, maxBatch)
			for _, b := range batches {
				switch b.Kind {
				case workload.OpInsert:
					s.InsertBatchInto(b.Keys, b.Keys, nil)
				case workload.OpLookup:
					s.LookupBatchInto(b.Keys, values[:len(b.Keys)], found[:len(b.Keys)])
				case workload.OpDelete:
					s.DeleteBatchInto(b.Keys, nil)
				}
			}
		}(st)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(total) / elapsed.Seconds() / 1e6
}

// ConcurrentSweep measures mixed-workload throughput for the global-lock
// wrapper and for each sharded configuration across goroutine counts, and
// reports the per-shard statistics of the widest sharded run.
func ConcurrentSweep(o ConcurrentOptions) ([]*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	ops, err := workload.Mix(workload.MixConfig{
		Seed: hashutil.Mix64(o.Seed ^ 0xc0c0), Ops: o.Ops,
		InsertWeight: o.InsertWeight, LookupWeight: o.LookupWeight,
		DeleteWeight: o.DeleteWeight, NegativeShare: o.NegativeShare,
		KeySpace: o.Capacity / 2,
	})
	if err != nil {
		return nil, err
	}

	global := metrics.NewSeries("global-lock")
	shardSeries := make([]*metrics.Series, len(o.Shards))
	batchSeries := make([]*metrics.Series, 0, len(o.Shards))
	for i, n := range o.Shards {
		shardSeries[i] = metrics.NewSeries(fmt.Sprintf("sharded/%d", n))
		if o.Batch > 0 {
			batchSeries = append(batchSeries, metrics.NewSeries(fmt.Sprintf("sharded/%d+batch", n)))
		}
	}
	var widest mccuckoo.ShardStats

	for _, g := range o.Goroutines {
		streams, err := workload.SplitByKey(ops, g, o.Seed)
		if err != nil {
			return nil, err
		}
		var batched [][]workload.Batch
		if o.Batch > 0 {
			batched = make([][]workload.Batch, len(streams))
			for j, st := range streams {
				batched[j] = workload.GroupBatches(st, o.Batch)
			}
		}
		// Each repetition replays the trace into a freshly built table (a
		// used table would answer the same trace with different work); the
		// best of Reps runs strips scheduler noise.
		best := 0.0
		for r := 0; r < o.Reps; r++ {
			tab, err := buildGlobal(o)
			if err != nil {
				return nil, err
			}
			if t := replayOps(tab, streams); t > best {
				best = t
			}
		}
		global.Add(float64(g), best)
		for i, n := range o.Shards {
			best = 0
			for r := 0; r < o.Reps; r++ {
				s, err := buildSharded(o, n)
				if err != nil {
					return nil, err
				}
				if t := replayOps(s, streams); t > best {
					best = t
				}
				widest = s.ShardStats()
			}
			shardSeries[i].Add(float64(g), best)
			if o.Batch > 0 {
				best = 0
				for r := 0; r < o.Reps; r++ {
					sb, err := buildSharded(o, n)
					if err != nil {
						return nil, err
					}
					if t := replayBatched(sb, batched, o.Batch); t > best {
						best = t
					}
					widest = sb.ShardStats()
				}
				batchSeries[i].Add(float64(g), best)
			}
		}
	}

	mode := "per-op"
	if o.Batch > 0 {
		mode = fmt.Sprintf("per-op and batched<=%d", o.Batch)
	}
	tput := &Result{
		ID: "concurrent",
		Table: &metrics.Table{
			Title: fmt.Sprintf("Concurrent throughput (Mops/s, wall clock) — %d-op %.0f/%.0f/%.0f mix, %s",
				o.Ops, o.InsertWeight, o.LookupWeight, o.DeleteWeight, mode),
			XLabel: "goroutines", XFmt: "%.0f", YFmt: "%.2f",
			Series: append(append([]*metrics.Series{global}, shardSeries...), batchSeries...),
		},
		Notes: []string{
			"wall-clock numbers: machine-dependent, unlike the paper's access-count figures",
			"streams are split by key so per-key op order is preserved under parallel replay",
			"+batch series replays key-affine-reordered batches (workload.GroupBatches) via the Into APIs",
		},
	}

	rows := [][]string{{"shard", "items", "load", "stash", "kicks", "lookups", "rlocks", "wlocks"}}
	for _, sh := range widest.Shards {
		rows = append(rows, []string{
			fmt.Sprintf("%d", sh.Shard),
			fmt.Sprintf("%d", sh.Items),
			fmt.Sprintf("%.1f%%", sh.LoadRatio*100),
			fmt.Sprintf("%d", sh.StashLen),
			fmt.Sprintf("%d", sh.Kicks),
			fmt.Sprintf("%d", sh.Lookups),
			fmt.Sprintf("%d", sh.ReadLocks),
			fmt.Sprintf("%d", sh.WriteLocks),
		})
	}
	stats := &Result{
		ID:    "concurrent-shards",
		Title: fmt.Sprintf("Per-shard statistics — %d shards after the final replay", len(widest.Shards)),
		Rows:  rows,
		Notes: []string{fmt.Sprintf("shard load min %.1f%% / max %.1f%%: routing balance",
			widest.MinLoad*100, widest.MaxLoad*100)},
	}
	return []*Result{tput, stats}, nil
}
