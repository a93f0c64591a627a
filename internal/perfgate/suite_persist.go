package perfgate

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"mccuckoo"
	"mccuckoo/internal/wire"
)

// persistOps is the persist series' ops per rep: each is a whole save or
// load, milliseconds long.
const persistOps = 2

// persistSeries measures what saving and restoring a node costs, one save
// or load per op: a sharded table's save to io.Discard and its load from a
// file, at 1<<14 and at 1<<17 capacity (a cluster-rw node's), each with 8
// shards and seeded to half load; then a Replicated over the larger table,
// its checkpoint (one file: the container and the bookkeeping) and the
// restore a restarted node runs (RestoreReplicated). The allocation counts
// show what each costs per array rather than per word: a save or a load
// makes as many allocations at either size, and a restore builds one index.
func persistSeries(r *Report, o SuiteOptions) (err error) {
	dir, err := os.MkdirTemp("", "mcperf-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// check keeps the first error an op meets.
	check := func(e error) {
		if err == nil {
			err = e
		}
	}
	// measure runs Reps reps of persistOps ops after one op of warmup.
	// Garbage collection is off meanwhile: each cycle wakes runtime cleanups
	// that allocate. The one cycle before the warmup may still wake some that
	// run late, in one rep at most, so the count is the fewest allocations
	// any rep made.
	measure := func(name string, op func()) {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		op()
		fewest, best := uint64(math.MaxUint64), int64(math.MaxInt64)
		var ms0, ms1 runtime.MemStats
		for range o.Reps {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for range persistOps {
				op()
			}
			best = min(best, time.Since(start).Nanoseconds())
			runtime.ReadMemStats(&ms1)
			fewest = min(fewest, ms1.Mallocs-ms0.Mallocs)
		}
		r.Series = append(r.Series, Series{
			Name:        name,
			Ops:         int64(persistOps) * int64(o.Reps),
			AllocsPerOp: math.Round(float64(fewest) / persistOps),
			NsPerOp:     float64(best) / persistOps,
		})
	}

	var tab *mccuckoo.Sharded
	values := filepath.Join(dir, "table.snap")
	for _, capacity := range []int{1 << 14, 1 << 17} {
		if tab, err = mccuckoo.NewSharded(capacity, 8, mccuckoo.WithSeed(seed)); err != nil {
			return err
		}
		if err = seedStore(tab, keysFor(capacity/2)); err != nil {
			return err
		}
		if err = tab.SaveFile(values); err != nil {
			return err
		}
		measure(fmt.Sprintf("persist/save/cap=%d", capacity), func() {
			_, e := tab.WriteTo(io.Discard)
			check(e)
		})
		measure(fmt.Sprintf("persist/load/cap=%d", capacity), func() {
			_, e := mccuckoo.LoadShardedFile(values)
			check(e)
		})
	}
	rep, checkpoint := wire.NewReplicated(tab, wire.ReplicaConfig{}), filepath.Join(dir, "replica.ckpt")
	measure("persist/checkpoint/cap=131072", func() {
		check(rep.Checkpoint(checkpoint))
	})
	measure("persist/restore/cap=131072", func() {
		_, e := wire.RestoreReplicated(checkpoint, wire.ReplicaConfig{})
		check(e)
	})
	return err
}
