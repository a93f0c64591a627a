package bench

import (
	"fmt"
	"math/rand/v2"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/workload"
)

// StandardLoads is the x axis shared by the load sweeps (Fig. 9, 10, 12–15a).
var StandardLoads = []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95}

// loadsFor clips the standard loads at the scheme's sustainable maximum.
func loadsFor(s Scheme, loads []float64) []float64 {
	out := make([]float64, 0, len(loads))
	for _, l := range loads {
		if l <= s.MaxLoad() {
			out = append(out, l)
		}
	}
	return out
}

// insertPoint is one measured load point of an insertion sweep.
type insertPoint struct {
	load      float64
	ops       int64
	kicks     float64 // kick-outs per insertion in the window
	offReads  float64 // off-chip reads per insertion
	offWrites float64 // off-chip writes per insertion
	traffic   memmodel.Meter
}

// windowOps returns the size of the measurement window: 2% of capacity,
// at least 64 insertions.
func windowOps(capacity int) int {
	w := capacity / 50
	if w < 64 {
		w = 64
	}
	return w
}

// insertSweep fills a fresh table with unique keys and measures per-insert
// metrics in a window ending at each target load. The stash is enabled so
// overfull points degrade gracefully instead of failing.
func insertSweep(s Scheme, o Options, run int, loads []float64) ([]insertPoint, error) {
	return insertSweepTC(s, o, run, loads, tableConfig{stash: true})
}

// insertSweepTC is insertSweep with an explicit table configuration, used by
// the ablations.
func insertSweepTC(s Scheme, o Options, run int, loads []float64, tc tableConfig) ([]insertPoint, error) {
	return insertSweepKeys(s, o, run, loads, tc, uniqueKeys)
}

// uniqueKeys is workload.Unique as a key source.
func uniqueKeys(seed uint64, n int) ([]uint64, error) { return workload.Unique(seed, n), nil }

// insertSweepKeys is insertSweepTC with a pluggable key source: gen returns
// n distinct keys for a run's seed.
func insertSweepKeys(s Scheme, o Options, run int, loads []float64, tc tableConfig, gen func(seed uint64, n int) ([]uint64, error)) ([]insertPoint, error) {
	seed := o.runSeed(run)
	tc.stash = true
	tab, err := build(s, o, seed, tc)
	if err != nil {
		return nil, err
	}
	capacity := tab.Capacity()
	keys, err := gen(seed, int(float64(capacity)*loads[len(loads)-1])+1)
	if err != nil {
		return nil, err
	}
	window := windowOps(capacity)

	points := make([]insertPoint, 0, len(loads))
	next := 0
	insertTo := func(target int) (kicks int64, err error) {
		for next < target {
			out := tab.Insert(keys[next], keys[next]+1)
			if out.Status == kv.Failed {
				return 0, fmt.Errorf("bench: %s insert failed at load %.3f", s, tab.LoadRatio())
			}
			kicks += int64(out.Kicks)
			next++
		}
		return kicks, nil
	}
	for _, load := range loads {
		target := int(load * float64(capacity))
		warm := target - window
		if warm < next {
			warm = next
		}
		if _, err := insertTo(warm); err != nil {
			return points, err
		}
		before := tab.Meter().Snapshot()
		start := next
		kicks, err := insertTo(target)
		if err != nil {
			return points, err
		}
		ops := int64(next - start)
		if ops == 0 {
			continue
		}
		delta := tab.Meter().Snapshot().Sub(before)
		points = append(points, insertPoint{
			load:      load,
			ops:       ops,
			kicks:     float64(kicks) / float64(ops),
			offReads:  float64(delta.OffChipReads) / float64(ops),
			offWrites: float64(delta.OffChipWrites) / float64(ops),
			traffic:   delta,
		})
	}
	return points, nil
}

// queryPoint is one measured load point of a lookup or deletion sweep.
type queryPoint struct {
	load     float64
	ops      int64
	offReads float64
	traffic  memmodel.Meter
}

// lookupSweep fills a table progressively and, at each load, measures reads
// per lookup over o.Queries sampled keys — present keys when positive is
// true, absent keys otherwise.
func lookupSweep(s Scheme, o Options, run int, loads []float64, positive bool) ([]queryPoint, error) {
	return lookupSweepTC(s, o, run, loads, positive, tableConfig{stash: true})
}

// lookupSweepTC is lookupSweep with an explicit table configuration.
func lookupSweepTC(s Scheme, o Options, run int, loads []float64, positive bool, tc tableConfig) ([]queryPoint, error) {
	seed := o.runSeed(run)
	tc.stash = true
	tab, err := build(s, o, seed, tc)
	if err != nil {
		return nil, err
	}
	capacity := tab.Capacity()
	keys := workload.Unique(seed, int(float64(capacity)*loads[len(loads)-1])+1)
	negatives := workload.Negative(seed, o.Queries, keys)
	rng := rand.New(rand.NewPCG(seed, hashutil.Mix64(seed+9)))

	points := make([]queryPoint, 0, len(loads))
	next := 0
	for _, load := range loads {
		target := int(load * float64(capacity))
		for next < target {
			if tab.Insert(keys[next], keys[next]+1).Status == kv.Failed {
				return points, fmt.Errorf("bench: %s fill failed at %.3f", s, tab.LoadRatio())
			}
			next++
		}
		before := tab.Meter().Snapshot()
		for q := 0; q < o.Queries; q++ {
			if positive {
				k := keys[rng.IntN(next)]
				if _, ok := tab.Lookup(k); !ok {
					return points, fmt.Errorf("bench: %s lost key %#x at load %.2f", s, k, load)
				}
			} else {
				if _, ok := tab.Lookup(negatives[q%len(negatives)]); ok {
					return points, fmt.Errorf("bench: %s phantom hit at load %.2f", s, load)
				}
			}
		}
		delta := tab.Meter().Snapshot().Sub(before)
		points = append(points, queryPoint{
			load:     load,
			ops:      int64(o.Queries),
			offReads: float64(delta.OffChipReads) / float64(o.Queries),
			traffic:  delta,
		})
	}
	return points, nil
}

// deleteSweep measures reads per deletion at each load, using a fresh table
// per point (deletions change the table's lookup regime, so points must not
// contaminate each other).
func deleteSweep(s Scheme, o Options, run int, loads []float64) ([]queryPoint, error) {
	seed := o.runSeed(run)
	points := make([]queryPoint, 0, len(loads))
	for pi, load := range loads {
		tab, err := build(s, o, hashutil.Mix64(seed+uint64(pi)), tableConfig{stash: true})
		if err != nil {
			return nil, err
		}
		capacity := tab.Capacity()
		target := int(load * float64(capacity))
		keys := workload.Unique(hashutil.Mix64(seed+uint64(pi)), target)
		for _, k := range keys {
			if tab.Insert(k, k+1).Status == kv.Failed {
				return points, fmt.Errorf("bench: %s fill failed at %.3f", s, tab.LoadRatio())
			}
		}
		n := o.Queries
		if n > target {
			n = target
		}
		rng := rand.New(rand.NewPCG(seed, hashutil.Mix64(seed+uint64(pi)+77)))
		before := tab.Meter().Snapshot()
		deleted := 0
		perm := rng.Perm(target)
		for _, idx := range perm[:n] {
			if !tab.Delete(keys[idx]) {
				return points, fmt.Errorf("bench: %s failed to delete live key at %.2f", s, load)
			}
			deleted++
		}
		delta := tab.Meter().Snapshot().Sub(before)
		points = append(points, queryPoint{
			load:     load,
			ops:      int64(deleted),
			offReads: float64(delta.OffChipReads) / float64(deleted),
			traffic:  delta,
		})
	}
	return points, nil
}
