package cuckoo

import (
	"fmt"
	"math/rand/v2"

	"mccuckoo/internal/bitpack"
	"mccuckoo/internal/bloom"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/stash"
)

// Table is a single-copy cuckoo hash table: the "Cuckoo" baseline when
// Slots == 1 (ternary cuckoo in the paper's experiments) and the "BCHT"
// baseline when Slots > 1 (3-hash 3-slot blocked cuckoo).
//
// The main table is modelled as off-chip memory: every bucket inspection is
// one off-chip read (a whole bucket, slots included, per access) and every
// slot update one off-chip write. The table is not safe for concurrent use.
type Table struct {
	cfg    Config
	family *hashutil.Family
	meter  memmodel.Meter
	rng    *rand.Rand

	// Flat slot storage, indexed by (table*n + bucket)*l + slot.
	occupied []bool
	keys     []uint64
	vals     []uint64

	// kickCounts backs the MinCounter policy (5-bit on-chip counters,
	// one per bucket). Nil under RandomWalk.
	kickCounts *bitpack.Counters

	// filter is the optional on-chip counting Bloom pre-screen
	// (Cuckoo+CBF comparison scheme). Nil unless BloomM is set.
	filter *bloom.Counting

	// forest is the SmartCuckoo loop-predetermination structure (d=2
	// only). forestValid flips off on the first Delete.
	forest      *pseudoforest
	forestValid bool

	overflow *stash.Stash
	size     int
	stats    kv.Stats
}

// New creates a baseline table from cfg.
func New(cfg Config) (*Table, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	family, err := hashutil.NewFamily(cfg.D, cfg.BucketsPerTable, cfg.Seed)
	if err != nil {
		return nil, err
	}
	slots := cfg.D * cfg.BucketsPerTable * cfg.Slots
	t := &Table{
		cfg:      cfg,
		family:   family,
		rng:      rand.New(rand.NewPCG(cfg.Seed, hashutil.Mix64(cfg.Seed+1))),
		occupied: make([]bool, slots),
		keys:     make([]uint64, slots),
		vals:     make([]uint64, slots),
	}
	if cfg.Policy == kv.MinCounter {
		t.kickCounts, err = bitpack.NewCounters(cfg.D*cfg.BucketsPerTable, 5)
		if err != nil {
			return nil, err
		}
	}
	if cfg.BloomM > 0 {
		t.filter, err = bloom.NewCounting(cfg.BloomM, cfg.BloomK, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	if cfg.PredetermineLoops {
		t.forest = newPseudoforest(cfg.D * cfg.BucketsPerTable)
		t.forestValid = true
	}
	if cfg.StashEnabled {
		t.overflow, err = stash.New(4, cfg.StashMax, cfg.Seed, &t.meter)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// OnChipBytes returns the on-chip memory the scheme needs: the MinCounter
// kick counters and/or the Bloom pre-screen cells (0 for plain baselines).
func (t *Table) OnChipBytes() int {
	total := 0
	if t.kickCounts != nil {
		total += t.kickCounts.SizeBytes()
	}
	if t.filter != nil {
		total += t.filter.SizeBytes()
	}
	return total
}

// slotBase returns the flat index of slot 0 of the given bucket.
func (t *Table) slotBase(table, bucket int) int {
	return (table*t.cfg.BucketsPerTable + bucket) * t.cfg.Slots
}

// bucketIndex returns the flat per-bucket index used by kick counters.
func (t *Table) bucketIndex(table, bucket int) int {
	return table*t.cfg.BucketsPerTable + bucket
}

// Len returns the number of live items, stash included.
func (t *Table) Len() int { return t.size + t.StashLen() }

// Capacity returns the total number of slots.
func (t *Table) Capacity() int { return t.cfg.D * t.cfg.BucketsPerTable * t.cfg.Slots }

// LoadRatio returns Len()/Capacity().
func (t *Table) LoadRatio() float64 { return float64(t.Len()) / float64(t.Capacity()) }

// Meter exposes the memory traffic counters.
func (t *Table) Meter() *memmodel.Meter { return &t.meter }

// Stats exposes lifetime operation counts.
func (t *Table) Stats() kv.Stats { return t.stats }

// StashLen returns the current stash population.
func (t *Table) StashLen() int {
	if t.overflow == nil {
		return 0
	}
	return t.overflow.Len()
}

// Insert stores key/value. With AssumeUniqueKeys off it first scans for an
// existing copy and updates it in place.
func (t *Table) Insert(key, value uint64) kv.Outcome {
	t.stats.Inserts++
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])

	if !t.cfg.AssumeUniqueKeys {
		if idx, ok := t.findSlot(key, cand[:t.cfg.D]); ok {
			t.vals[idx] = value
			t.meter.WriteOff(1)
			t.stats.Updates++
			return kv.Outcome{Status: kv.Updated}
		}
		if t.overflow != nil {
			if _, ok := t.overflow.Lookup(key); ok {
				t.overflow.Insert(key, value)
				t.stats.Updates++
				return kv.Outcome{Status: kv.Updated}
			}
		}
	}

	if t.forest != nil && t.forestValid {
		u, v := t.bucketIndex(0, cand[0]), t.bucketIndex(1, cand[1])
		if t.forest.wouldFail(u, v) {
			// Predetermined failure: straight to the stash with
			// zero wasted kicks — the SmartCuckoo payoff.
			out := t.overflowInsert(kv.Entry{Key: key, Value: value}, 0)
			if t.filter != nil && out.Status == kv.Stashed {
				t.filter.Add(key)
				t.meter.WriteOn(int64(t.filter.K()))
			}
			return out
		}
		t.forest.addEdge(u, v)
	}
	out := t.insertResolved(kv.Entry{Key: key, Value: value})
	if t.filter != nil && (out.Status == kv.Placed || out.Status == kv.Stashed) {
		t.filter.Add(key)
		t.meter.WriteOn(int64(t.filter.K()))
	}
	return out
}

// insertResolved runs the placement/kick machinery for a key known to be
// absent.
func (t *Table) insertResolved(entry kv.Entry) kv.Outcome {
	var cand [hashutil.MaxD]int
	t.family.Indexes(entry.Key, cand[:])
	cur := entry
	prevTable := -1
	kicks := 0
	for {
		// Scan candidate buckets for a free slot, paying one off-chip
		// read per bucket inspected. Standard cuckoo cannot know a
		// bucket is empty without reading it (cf. §IV.B).
		placed := false
		for i := 0; i < t.cfg.D && !placed; i++ {
			t.meter.ReadOff(1)
			base := t.slotBase(i, cand[i])
			for s := 0; s < t.cfg.Slots; s++ {
				if !t.occupied[base+s] {
					t.writeSlot(base+s, cur)
					t.size++
					placed = true
					break
				}
			}
		}
		if placed {
			t.stats.Kicks += int64(kicks)
			return kv.Outcome{Status: kv.Placed, Kicks: kicks}
		}

		if t.cfg.Policy == kv.BFS {
			// BFS finds the whole relocation chain before moving
			// anything; it never iterates this loop.
			return t.insertBFS(cur)
		}

		if kicks >= t.cfg.MaxLoop {
			t.stats.Kicks += int64(kicks)
			return t.overflowInsert(cur, kicks)
		}

		// All candidates full: evict a victim and continue with it.
		vt := t.pickVictimTable(cand[:t.cfg.D], prevTable)
		vs := t.rng.IntN(t.cfg.Slots)
		idx := t.slotBase(vt, cand[vt]) + vs
		victim := kv.Entry{Key: t.keys[idx], Value: t.vals[idx]}
		t.writeSlot(idx, cur)
		cur = victim
		prevTable = vt
		kicks++
		t.family.Indexes(cur.Key, cand[:])
	}
}

// writeSlot stores e into flat slot idx, charging one off-chip write.
func (t *Table) writeSlot(idx int, e kv.Entry) {
	t.occupied[idx] = true
	t.keys[idx] = e.Key
	t.vals[idx] = e.Value
	t.meter.WriteOff(1)
}

// pickVictimTable chooses which candidate bucket to evict from.
func (t *Table) pickVictimTable(cand []int, prevTable int) int {
	if t.cfg.Policy == kv.MinCounter && t.kickCounts != nil {
		best, bestCount := -1, uint64(1<<62)
		for i := range cand {
			if i == prevTable && len(cand) > 1 {
				continue
			}
			t.meter.ReadOn(1)
			c := t.kickCounts.Get(t.bucketIndex(i, cand[i]))
			if c < bestCount || (c == bestCount && t.rng.IntN(2) == 0) {
				best, bestCount = i, c
			}
		}
		bi := t.bucketIndex(best, cand[best])
		if v := t.kickCounts.Get(bi); v < t.kickCounts.Max() {
			t.kickCounts.Set(bi, v+1)
			t.meter.WriteOn(1)
		}
		return best
	}
	for {
		i := t.rng.IntN(len(cand))
		if i != prevTable || len(cand) == 1 {
			return i
		}
	}
}

// overflowInsert handles an insertion whose kick chain exceeded MaxLoop.
func (t *Table) overflowInsert(cur kv.Entry, kicks int) kv.Outcome {
	if t.overflow != nil && t.overflow.Insert(cur.Key, cur.Value) {
		t.stats.Stashed++
		return kv.Outcome{Status: kv.Stashed, Kicks: kicks}
	}
	// No stash (or stash full): the item is dropped and the failure
	// reported; callers may Rehash. This mirrors the paper's "claim a
	// failure" at maxloop.
	t.stats.Failures++
	return kv.Outcome{Status: kv.Failed, Kicks: kicks}
}

// findSlot scans the candidate buckets for key, charging one read per bucket
// inspected, and returns the flat slot index on success.
func (t *Table) findSlot(key uint64, cand []int) (int, bool) {
	for i := 0; i < t.cfg.D; i++ {
		t.meter.ReadOff(1)
		base := t.slotBase(i, cand[i])
		for s := 0; s < t.cfg.Slots; s++ {
			if t.occupied[base+s] && t.keys[base+s] == key {
				return base + s, true
			}
		}
	}
	return 0, false
}

// Lookup returns the value stored for key. A single-copy scheme must check
// candidate buckets until the item is found, and all of them to conclude a
// miss; a miss then probes the stash if one exists (CHS always does).
func (t *Table) Lookup(key uint64) (uint64, bool) {
	t.stats.Lookups++
	if t.filter != nil {
		t.meter.ReadOn(int64(t.filter.K()))
		if !t.filter.MayContain(key) {
			return 0, false
		}
	}
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	if idx, ok := t.findSlot(key, cand[:t.cfg.D]); ok {
		t.stats.Hits++
		return t.vals[idx], true
	}
	if t.overflow != nil && t.overflow.Len() > 0 {
		t.stats.StashProbes++
		if v, ok := t.overflow.Lookup(key); ok {
			t.stats.Hits++
			return v, true
		}
	}
	return 0, false
}

// Delete removes key, reporting whether it was present. Single-copy deletion
// costs the lookup reads plus exactly one off-chip write (§IV.D).
func (t *Table) Delete(key uint64) bool {
	t.stats.Deletes++
	if t.filter != nil {
		t.meter.ReadOn(int64(t.filter.K()))
		if !t.filter.MayContain(key) {
			return false
		}
	}
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	if idx, ok := t.findSlot(key, cand[:t.cfg.D]); ok {
		t.occupied[idx] = false
		t.keys[idx] = 0
		t.vals[idx] = 0
		t.meter.WriteOff(1)
		t.size--
		t.removeFromFilter(key)
		// Union-find cannot un-merge: deletion ends loop prediction
		// until the next Rehash.
		t.forestValid = false
		return true
	}
	if t.overflow != nil && t.overflow.Len() > 0 {
		t.stats.StashProbes++
		if t.overflow.Delete(key) {
			t.removeFromFilter(key)
			return true
		}
	}
	return false
}

// removeFromFilter updates the Bloom pre-screen after a confirmed deletion.
func (t *Table) removeFromFilter(key uint64) {
	if t.filter != nil {
		t.filter.Remove(key)
		t.meter.WriteOn(int64(t.filter.K()))
	}
}

// Rehash rebuilds the table with a fresh hash family, optionally growing
// each subtable by growFactor (>= 1). All items, stash included, are
// reinserted; the traffic of reading every occupied slot and rewriting the
// items is charged to the meter. It returns an error if any item cannot be
// placed even after rehashing.
func (t *Table) Rehash(growFactor float64) error {
	if growFactor < 1 {
		return fmt.Errorf("cuckoo: growFactor must be >= 1, got %g", growFactor)
	}
	items := make([]kv.Entry, 0, t.size+t.StashLen())
	for idx, occ := range t.occupied {
		if occ {
			items = append(items, kv.Entry{Key: t.keys[idx], Value: t.vals[idx]})
		}
	}
	// Reading the whole table back: one read per bucket.
	t.meter.ReadOff(int64(t.cfg.D * t.cfg.BucketsPerTable))
	if t.overflow != nil {
		items = append(items, t.overflow.Drain()...)
	}

	newN := int(float64(t.cfg.BucketsPerTable) * growFactor)
	family, err := hashutil.NewFamily(t.cfg.D, newN, hashutil.Mix64(t.cfg.Seed+0x9e37))
	if err != nil {
		return err
	}
	t.cfg.Seed = hashutil.Mix64(t.cfg.Seed + 0x9e37)
	t.cfg.BucketsPerTable = newN
	t.family = family
	if t.filter != nil {
		// Rebuild the pre-screen from scratch; reinsertion re-adds
		// every member exactly once.
		t.filter, err = bloom.NewCounting(t.cfg.BloomM, t.cfg.BloomK, t.cfg.Seed)
		if err != nil {
			return err
		}
	}
	if t.forest != nil {
		// Rebuild the pseudoforest; reinsertion re-adds every edge.
		t.forest = newPseudoforest(t.cfg.D * newN)
		t.forestValid = true
	}
	slots := t.cfg.D * newN * t.cfg.Slots
	t.occupied = make([]bool, slots)
	t.keys = make([]uint64, slots)
	t.vals = make([]uint64, slots)
	if t.kickCounts != nil {
		t.kickCounts, err = bitpack.NewCounters(t.cfg.D*newN, 5)
		if err != nil {
			return err
		}
	}
	t.size = 0

	for _, e := range items {
		switch out := t.reinsert(e); out.Status {
		case kv.Placed, kv.Stashed:
		default:
			return fmt.Errorf("cuckoo: rehash failed to place key %#x", e.Key)
		}
	}
	return nil
}

// reinsert places an entry during rehash without double-counting stats.
func (t *Table) reinsert(e kv.Entry) kv.Outcome {
	saved := t.stats
	out := t.Insert(e.Key, e.Value)
	t.stats = saved
	return out
}
