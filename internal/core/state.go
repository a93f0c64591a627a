package core

import (
	"fmt"
	"math/rand/v2"

	"mccuckoo/internal/bitpack"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/stash"
)

// Table kinds, as recorded in the snapshot header and salted into the
// random-walk seed.
const (
	kindSingle  = 0
	kindBlocked = 1
)

// kindNames names each kind in *CorruptError reports.
var kindNames = [...]string{kindSingle: "table", kindBlocked: "blocked"}

// tableState is everything a McCuckoo table holds apart from its probe
// algorithm. Table (l = 1) and BlockedTable (l slots per bucket) embed it by
// value and add only the two paper algorithms; every method that does not
// depend on the probe is written once, here.
//
// Storage model: the cells and the stash flags are "off-chip"; the counter
// and kick-counter arrays are "on-chip". Off-chip bucket accesses and
// on-chip counter accesses are charged to the Meter separately. A table is
// not safe for concurrent use; internal/shard puts it behind a lock.
type tableState struct {
	cfg    Config
	family *hashutil.Family
	meter  memmodel.Meter
	rng    *rand.Rand

	// Off-chip main table, flat-indexed by (table*n + bucket)*l + slot. Key
	// and value are interleaved so one slot is one 16-byte cell: a lookup
	// hit reads the value from the cache line the key probe already pulled
	// in, which is also how the paper's off-chip model works (the value
	// travels with the bucket in a single access).
	cells []kv.Entry
	// flags are the 1-bit stash flags stored alongside each *bucket*
	// off-chip (§III.E, §III.G). Reading a bucket returns its flag for
	// free; setting a flag costs one off-chip write. Stale flags only ever
	// cost extra stash probes, never correctness — but only if every
	// mutation goes through the charged setters below.
	//
	//mcvet:restricted flags
	flags *bitpack.Bitset

	// On-chip counter array, one per cell: counters.Get(i) is the number of
	// copies the item in cell i has, 0 for empty, tombstoneVal for deleted
	// marks. Counter transitions carry the paper's invariants (never
	// overwrite a counter-1 cell; decrement only on kick-out or delete), so
	// raw writes are restricted to the sanctioned setters.
	//
	//mcvet:restricted counters
	counters     *bitpack.Counters
	tombstoneVal uint64 // 0 when tombstones are disabled
	// kickCounts backs the MinCounter resolver (5-bit on-chip counters, one
	// per bucket). Nil under RandomWalk.
	//
	//mcvet:restricted kickcounts
	kickCounts *bitpack.Counters

	overflow *stash.Stash
	// deletedAny flips when the first ResetCounters deletion happens; from
	// then on the zero-counter lookup shortcut and the counter-based stash
	// pre-screen are disabled (§III.F).
	deletedAny bool

	size            int // distinct items in the main table
	copiesTotal     int // live physical copies in the main table
	redundantWrites int64
	stats           kv.Stats
	// growing guards the auto-grow policy against re-entry while Grow's
	// own reinsertions stash items.
	growing bool

	// Fields only cold paths read come last, behind the per-op fields
	// above: placing them in front shifted those fields and measurably
	// slowed small-table inserts and deletes.
	kind uint8
	// algo is the probe algorithm embedding this state (the *Table or
	// *BlockedTable itself). Only the rebuild, refresh, pathwise, repair
	// and snapshot paths go through it; Insert, Lookup and Delete are the
	// kinds' own methods and call their algorithm directly.
	algo algorithm
}

// algorithm is the probe algorithm of one table kind, as the shared state
// calls it back. Both kinds also satisfy pathwiseTable.
type algorithm interface {
	pathwiseTable
	// updateExisting rewrites every copy of key in place, reporting
	// whether key was present (main table or stash).
	updateExisting(key, value uint64, cand []int) (kv.Outcome, bool)
	// place applies the insertion principles to e, returning the number of
	// copies placed; 0 means a real collision.
	place(e kv.Entry, cand []int) int
	// resolveCollision runs the counter-guided random walk for e.
	resolveCollision(e kv.Entry, cand []int) kv.Outcome
	// hintsRef returns the kind's per-cell slot hints, nil for a kind that
	// keeps none.
	hintsRef() *[][4]int8
	// repairCopies picks, per subtable, the slot holding the key's copy
	// (noSlot for none) from what Repair's off-chip scan found.
	repairCopies(k repairKey, cand []int) [4]int8
}

// setup validates cfg and allocates an empty table of the given kind whose
// probe algorithm is algo.
func (s *tableState) setup(cfg Config, kind uint8, algo algorithm) error {
	if err := cfg.normalize(kind == kindBlocked); err != nil {
		return err
	}
	s.cfg, s.kind, s.algo = cfg, kind, algo
	s.rng = rand.New(rand.NewPCG(cfg.Seed, hashutil.Mix64(cfg.Seed+2+uint64(kind))))
	if cfg.Deletion == Tombstone {
		s.tombstoneVal = uint64(cfg.D) + 1
	}
	if cfg.StashEnabled {
		var err error
		if s.overflow, err = stash.New(4, cfg.StashMax, cfg.Seed, &s.meter); err != nil {
			return err
		}
	}
	return s.allocate(cfg.BucketsPerTable, cfg.Seed)
}

// allocate installs an empty main table of n buckets per subtable hashed
// under seed: cells, counters, flags, kick counters and the kind's hints.
// On error the table is left as it was. As the constructor and rebuild
// path it owns the installation of every restricted array.
//
//mcvet:setter counters flags kickcounts
func (s *tableState) allocate(n int, seed uint64) error {
	cfg := s.cfg
	cfg.BucketsPerTable, cfg.Seed = n, seed
	family, err := newFamily(cfg)
	if err != nil {
		return err
	}
	buckets := cfg.D * n
	counters, err := bitpack.NewCounters(buckets*cfg.Slots, cfg.counterWidth())
	if err != nil {
		return err
	}
	flags, err := bitpack.NewBitset(buckets)
	if err != nil {
		return err
	}
	var kickCounts *bitpack.Counters
	if cfg.Policy == kv.MinCounter {
		if kickCounts, err = bitpack.NewCounters(buckets, 5); err != nil {
			return err
		}
	}
	s.cfg, s.family = cfg, family
	s.cells = make([]kv.Entry, buckets*cfg.Slots)
	s.counters, s.flags, s.kickCounts = counters, flags, kickCounts
	if hints := s.algo.hintsRef(); hints != nil {
		*hints = make([][4]int8, len(s.cells))
		for i := range *hints {
			(*hints)[i] = [4]int8{noSlot, noSlot, noSlot, noSlot}
		}
	}
	return nil
}

// reseedRNG re-derives the random-walk generator after a snapshot load so
// subsequent kick sequences are deterministic for the (seed, size) pair.
func (s *tableState) reseedRNG() {
	s.rng = rand.New(rand.NewPCG(s.cfg.Seed, hashutil.Mix64(s.cfg.Seed+uint64(s.size)+2+uint64(s.kind))))
}

// bucketIndex returns the flat index of bucket `bucket` in subtable `table`:
// the index of its stash flag and kick counter, and on a single-slot Table
// also of its cell and counter.
//
//mcvet:hotpath
func (s *tableState) bucketIndex(table, bucket int) int {
	return table*s.cfg.BucketsPerTable + bucket
}

// cellIndex returns the flat index of (table, bucket, slot).
//
//mcvet:hotpath
func (s *tableState) cellIndex(table, bucket, slot int) int {
	return (table*s.cfg.BucketsPerTable+bucket)*s.cfg.Slots + slot
}

// isFree reports whether a counter value means the cell may be written by
// an insertion: empty, or marked deleted in tombstone mode.
//
//mcvet:hotpath
func (s *tableState) isFree(counter uint64) bool {
	return counter == 0 || (s.tombstoneVal != 0 && counter == s.tombstoneVal)
}

// rule1Active reports whether a zero counter still proves "never inserted":
// always in tombstone mode, and until the first deletion otherwise (§III.F).
//
//mcvet:hotpath
func (s *tableState) rule1Active() bool {
	return s.cfg.Deletion == Tombstone || !s.deletedAny
}

// setStashFlag raises the stash flag of flat bucket idx, charging the
// off-chip write only on an actual 0→1 transition. It is the sanctioned
// mutation path for flags on the insert side.
//
//mcvet:hotpath
//mcvet:setter flags
func (s *tableState) setStashFlag(idx int) {
	if !s.flags.Get(idx) {
		s.flags.Set(idx)
		s.meter.WriteOff(1)
	}
}

// clearStashFlag lowers the stash flag of flat bucket idx, charging the
// off-chip write only on an actual 1→0 transition. Only flag-refresh and
// rebuild paths may lower flags: a premature clear would create stash
// false negatives, which break the lookup contract.
//
//mcvet:setter flags
func (s *tableState) clearStashFlag(idx int) {
	if s.flags.Get(idx) {
		s.flags.Clear(idx)
		s.meter.WriteOff(1)
	}
}

// pickVictim chooses the candidate bucket to evict from during the random
// walk: uniformly at random under RandomWalk, or the candidate with the
// smallest 5-bit kick counter under MinCounter. Both avoid bouncing straight
// back to prevTable. Saturating the kick counter here is the only sanctioned
// kickCounts mutation outside construction and rebuild.
//
//mcvet:hotpath
//mcvet:setter kickcounts
func (s *tableState) pickVictim(cand []int, prevTable int) int {
	if s.kickCounts != nil {
		best, bestCount := -1, uint64(1<<62)
		for i := range cand {
			if i == prevTable {
				continue
			}
			s.meter.ReadOn(1)
			c := s.kickCounts.Get(s.bucketIndex(i, cand[i]))
			if c < bestCount || (c == bestCount && s.rng.IntN(2) == 0) {
				best, bestCount = i, c
			}
		}
		bi := s.bucketIndex(best, cand[best])
		if v := s.kickCounts.Get(bi); v < s.kickCounts.Max() {
			s.kickCounts.Set(bi, v+1)
			s.meter.WriteOn(1)
		}
		return best
	}
	for {
		i := s.rng.IntN(len(cand))
		if i != prevTable {
			return i
		}
	}
}

// updateStash rewrites key's value when key sits in the stash, reporting
// whether it did: the stash half of an insert that finds its key.
//
//mcvet:hotpath
func (s *tableState) updateStash(key, value uint64) (kv.Outcome, bool) {
	if s.overflow != nil && s.overflow.Len() > 0 {
		if _, ok := s.overflow.Lookup(key); ok {
			s.overflow.Insert(key, value)
			s.stats.Updates++
			return kv.Outcome{Status: kv.Updated}, true
		}
	}
	return kv.Outcome{}, false
}

// overflowInsert stores the item the walk could not place into the stash and
// sets the stash flags of its candidate buckets (one off-chip write each).
func (s *tableState) overflowInsert(cur kv.Entry, cand []int, kicks int) kv.Outcome {
	if s.overflow == nil || !s.overflow.Insert(cur.Key, cur.Value) {
		s.stats.Failures++
		return kv.Outcome{Status: kv.Failed, Kicks: kicks}
	}
	for i := 0; i < s.cfg.D; i++ {
		s.setStashFlag(s.bucketIndex(i, cand[i]))
	}
	s.stats.Stashed++
	s.maybeAutoGrow()
	return kv.Outcome{Status: kv.Stashed, Kicks: kicks}
}

// reinsert places an item taken out of the table (by Grow or a stash-flag
// refresh) through the insertion principles, falling back to the random
// walk. cand is the caller's MaxD-long scratch for e's candidates, hoisted
// out of the caller's loop because the algorithm calls let it escape.
func (s *tableState) reinsert(e kv.Entry, cand []int) kv.Outcome {
	s.family.Indexes(e.Key, cand)
	if copies := s.algo.place(e, cand[:s.cfg.D]); copies > 0 {
		s.size++
		return kv.Outcome{Status: kv.Placed}
	}
	return s.algo.resolveCollision(e, cand[:s.cfg.D])
}

// RefreshStashFlags clears every stash flag and reinserts all stashed items
// through the normal insertion path, re-stashing (and re-flagging) those
// that still do not fit (§III.F). It returns the number of items that moved
// from the stash into the main table.
func (s *tableState) RefreshStashFlags() int {
	if s.overflow == nil {
		return 0
	}
	// Targeted clears: one off-chip write per flag that was set.
	for i := 0; i < s.flags.Len(); i++ {
		s.clearStashFlag(i)
	}
	moved := 0
	var cand [hashutil.MaxD]int
	for _, e := range s.overflow.Drain() {
		if s.reinsert(e, cand[:]).Status == kv.Placed {
			moved++
		}
	}
	return moved
}

// Grow rebuilds the table with a fresh hash family and growFactor times the
// buckets per subtable (growFactor >= 1; 1 rehashes in place, which also
// re-absorbs the stash). All live items and stashed items are reinserted;
// stash flags are rebuilt from scratch. The traffic of reading the whole
// table back and rewriting every item is charged to the meter — this is the
// expensive operation McCuckoo's stash exists to avoid (§I), provided here
// because real deployments eventually need capacity growth.
func (s *tableState) Grow(growFactor float64) error {
	if growFactor < 1 {
		return fmt.Errorf("core: growFactor must be >= 1, got %g", growFactor)
	}
	items := s.liveEntries()
	// Reading every bucket back: one off-chip read per bucket.
	s.meter.ReadOff(int64(s.cfg.D * s.cfg.BucketsPerTable))
	if s.overflow != nil {
		items = append(items, s.overflow.Drain()...)
	}
	newN := int(float64(s.cfg.BucketsPerTable) * growFactor)
	if err := s.allocate(newN, hashutil.Mix64(s.cfg.Seed+0x47726f77)); err != nil {
		return err
	}
	s.size, s.copiesTotal, s.deletedAny = 0, 0, false
	var cand [hashutil.MaxD]int
	for _, e := range items {
		switch s.reinsert(e, cand[:]).Status {
		case kv.Placed, kv.Stashed:
		default:
			return fmt.Errorf("core: grow failed to place key %#x", e.Key)
		}
	}
	return nil
}

// liveEntries collects one entry per distinct live key, without charging
// traffic (Grow charges the bulk read separately).
func (s *tableState) liveEntries() []kv.Entry {
	seen := make(map[uint64]struct{}, s.size)
	items := make([]kv.Entry, 0, s.size)
	for idx, c := range s.cells {
		if s.isFree(s.counters.Get(idx)) {
			continue
		}
		if _, dup := seen[c.Key]; dup {
			continue
		}
		seen[c.Key] = struct{}{}
		items = append(items, c)
	}
	return items
}

// TryPlace attempts principle-based placement (or an in-place update) of
// key/value. done is false exactly when a real collision occurred and a
// cuckoo path is needed. First stage of the pathwise insertion protocol.
func (s *tableState) TryPlace(key, value uint64) (out kv.Outcome, done bool) {
	s.stats.Inserts++
	var cand [hashutil.MaxD]int
	s.family.Indexes(key, cand[:])
	if !s.cfg.AssumeUniqueKeys {
		if out, handled := s.algo.updateExisting(key, value, cand[:s.cfg.D]); handled {
			return out, true
		}
	}
	if copies := s.algo.place(kv.Entry{Key: key, Value: value}, cand[:s.cfg.D]); copies > 0 {
		s.size++
		return kv.Outcome{Status: kv.Placed}, true
	}
	return kv.Outcome{}, false
}

// StashOverflow sends key/value to the stash after a failed path search.
// Final stage of the pathwise protocol on the failure branch.
func (s *tableState) StashOverflow(key, value uint64) kv.Outcome {
	var cand [hashutil.MaxD]int
	s.family.Indexes(key, cand[:])
	return s.overflowInsert(kv.Entry{Key: key, Value: value}, cand[:s.cfg.D], 0)
}

// InsertPathwise inserts key/value using two-phase cuckoo-path execution:
// the path is discovered first, then executed from its far end backwards,
// so the table is a valid McCuckoo table after every step. Functionally
// equivalent to Insert; the point is bounded mutation steps for a lock
// layer (the package-level InsertPathwise interleaves readers between steps).
func (s *tableState) InsertPathwise(key, value uint64) kv.Outcome {
	return pathwise(noLock{}, s.algo, key, value)
}

// Kind returns the table kind byte its snapshot header records: 0 for a
// Table, 1 for a BlockedTable.
func (s *tableState) Kind() uint8 { return s.kind }

// Len returns the number of distinct live items, stash included.
func (s *tableState) Len() int { return s.size + s.StashLen() }

// Capacity returns the total number of slots (buckets, on a Table).
func (s *tableState) Capacity() int { return len(s.cells) }

// LoadRatio returns distinct items over table size, the paper's load metric.
func (s *tableState) LoadRatio() float64 { return float64(s.Len()) / float64(s.Capacity()) }

// Meter exposes the memory-traffic counters.
func (s *tableState) Meter() *memmodel.Meter { return &s.meter }

// Stats exposes lifetime operation counts.
func (s *tableState) Stats() kv.Stats { return s.stats }

// StashLen returns the current stash population.
func (s *tableState) StashLen() int {
	if s.overflow == nil {
		return 0
	}
	return s.overflow.Len()
}

// Copies returns the number of live physical copies currently stored in the
// main table (>= Len() - StashLen(); the surplus is the redundancy).
func (s *tableState) Copies() int { return s.copiesTotal }

// RedundantWrites returns the lifetime count of proactive redundant copy
// writes (Theorem 2 bounds this by S·(1 + Σ_{t=3..d} 1/t)).
func (s *tableState) RedundantWrites() int64 { return s.redundantWrites }

// OnChipBytes returns the size of the on-chip counter array.
func (s *tableState) OnChipBytes() int { return s.counters.SizeBytes() }

// Stash-flag density is the fraction of off-chip buckets whose stash flag is
// set. The flags pre-screen stash probes (§III.E), so their density is the
// false-positive pressure on negative lookups once the stash is in play — a
// density creeping toward 1 means lookups are paying the stash tax again.
// This is the single source of truth for the telemetry gauge; the sharded
// table aggregates the raw counts so the density stays a true fraction.

// StashFlags returns the number of set stash-flag bits and the total number
// of flag bits (one per bucket).
func (s *tableState) StashFlags() (set, total int) {
	return s.flags.Count(), s.flags.Len()
}

// StashFlagDensity returns set/total stash-flag bits, 0 for an empty flag
// array.
func (s *tableState) StashFlagDensity() float64 {
	set, total := s.StashFlags()
	if total == 0 {
		return 0
	}
	return float64(set) / float64(total)
}

// CopyHistogram returns how many live items currently have 1, 2, ..., d
// copies (index 0 is unused). The redundancy distribution is the quantity
// Theorems 1 and 2 reason about; watching it drain toward all-ones shows a
// table approaching its collision regime.
func (s *tableState) CopyHistogram() []int {
	hist := make([]int, s.cfg.D+1)
	seen := make(map[uint64]struct{}, s.size)
	for idx, cell := range s.cells {
		c := s.counters.Get(idx)
		if s.isFree(c) || c > uint64(s.cfg.D) {
			continue
		}
		if _, dup := seen[cell.Key]; dup {
			continue
		}
		seen[cell.Key] = struct{}{}
		hist[c]++
	}
	return hist
}

// CopyCount returns how many live copies of key the main table holds,
// without charging memory traffic. Test support.
func (s *tableState) CopyCount(key uint64) int {
	var cand [hashutil.MaxD]int
	s.family.Indexes(key, cand[:])
	copies := 0
	for i := 0; i < s.cfg.D; i++ {
		for slot := 0; slot < s.cfg.Slots; slot++ {
			idx := s.cellIndex(i, cand[i], slot)
			if !s.isFree(s.counters.Get(idx)) && s.cells[idx].Key == key {
				copies++
			}
		}
	}
	return copies
}
