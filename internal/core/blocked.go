package core

import (
	"fmt"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

// noSlot marks an absent copy in a slot-hint entry.
const noSlot = int8(-1)

// BlockedTable is the multi-slot McCuckoo (B-McCuckoo): d hash functions,
// l slots per bucket, one on-chip counter per slot (Fig. 5). Reading a
// bucket fetches all its slots in one off-chip access; writing updates one
// slot. Its state is the shared tableState; BlockedTable adds the slot hints
// and the blocked algorithms.
//
// Each stored copy carries slot hints: for every other subtable, the slot
// index its sibling copy occupies there ((d-1)·log2(l) bits per slot in the
// paper). Hints let the table update a victim's surviving copies without
// searching their buckets; overwrites therefore also rewrite the survivors'
// hint fields (off-chip writes, counted — see DESIGN.md §6).
type BlockedTable struct {
	tableState
	// hints[idx][j] is the slot of cell idx's sibling copy in subtable j,
	// noSlot if none; indexed like the cells.
	hints [][4]int8
}

// NewBlocked creates a blocked McCuckoo table. cfg.Slots defaults to 3.
func NewBlocked(cfg Config) (*BlockedTable, error) {
	t := &BlockedTable{}
	if err := t.setup(cfg, kindBlocked, t); err != nil {
		return nil, err
	}
	return t, nil
}

// hintsRef exposes the slot hints to the shared rebuild, repair and
// snapshot paths.
func (t *BlockedTable) hintsRef() *[][4]int8 { return &t.hints }

// bucketCounters reads the l counters of one candidate bucket, charging a
// single on-chip access (the counters of a bucket are co-located in one
// SRAM word).
//
//mcvet:hotpath
func (t *BlockedTable) bucketCounters(table, bucket int, dst []uint64) {
	t.meter.ReadOn(1)
	base := t.cellIndex(table, bucket, 0)
	for s := 0; s < t.cfg.Slots; s++ {
		dst[s] = t.counters.Get(base + s)
	}
}

// setSlotCounter writes one slot counter, charging the on-chip access.
//
//mcvet:hotpath
//mcvet:setter counters
func (t *BlockedTable) setSlotCounter(table, bucket, slot int, v uint64) {
	t.meter.WriteOn(1)
	t.counters.Set(t.cellIndex(table, bucket, slot), v)
}

// readBucketAccess charges one off-chip read for fetching a whole bucket
// (all slots plus the stash flag).
//
//mcvet:hotpath
func (t *BlockedTable) readBucketAccess() {
	t.meter.ReadOff(1)
}

// writeSlot stores an entry with hints into one slot, charging one off-chip
// write.
//
//mcvet:hotpath
func (t *BlockedTable) writeSlot(idx int, e kv.Entry, hints [4]int8) {
	t.meter.WriteOff(1)
	t.cells[idx] = e
	t.hints[idx] = hints
}

// Insert stores key/value following Algorithm 1: occupy one free slot in
// every candidate bucket, then overwrite slots whose items keep a two-copy
// lead, in decreasing counter order; when all d·l candidate slot counters
// are 1, fall back to the counter-guided random walk.
//
//mcvet:hotpath
func (t *BlockedTable) Insert(key, value uint64) kv.Outcome {
	t.stats.Inserts++
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])

	if !t.cfg.AssumeUniqueKeys {
		if out, done := t.updateExisting(key, value, cand[:t.cfg.D]); done {
			return out
		}
	}
	if copies := t.place(kv.Entry{Key: key, Value: value}, cand[:t.cfg.D]); copies > 0 {
		t.size++
		return kv.Outcome{Status: kv.Placed}
	}
	return t.resolveCollision(kv.Entry{Key: key, Value: value}, cand[:t.cfg.D])
}

// updateExisting updates all copies of an existing key in place.
//
//mcvet:hotpath
func (t *BlockedTable) updateExisting(key, value uint64, cand []int) (kv.Outcome, bool) {
	if st := t.scanBuckets(key, cand, &t.meter); st.foundTable >= 0 {
		table, slot := st.foundTable, st.foundSlot
		idx := t.cellIndex(table, cand[table], slot)
		hints := t.hints[idx]
		hints[table] = int8(slot)
		for j := 0; j < t.cfg.D; j++ {
			if hints[j] == noSlot {
				continue
			}
			jidx := t.cellIndex(j, cand[j], int(hints[j]))
			t.cells[jidx].Value = value
			t.meter.WriteOff(1)
		}
		t.stats.Updates++
		return kv.Outcome{Status: kv.Updated}, true
	}
	return t.updateStash(key, value)
}

// place applies the insertion principles at slot granularity. Returns the
// number of copies placed, 0 on a real collision. As in the single-slot
// table, taken slots get their counters set to the running copy count
// immediately so they can never be mistaken for overwritable victims.
//
//mcvet:hotpath
func (t *BlockedTable) place(e kv.Entry, cand []int) int {
	d, l := t.cfg.D, t.cfg.Slots
	var ownedSlot [hashutil.MaxD]int8
	for i := range ownedSlot {
		ownedSlot[i] = noSlot
	}
	copies := 0
	var cnt [8]uint64

	// Pass 1: one free slot per candidate bucket.
	for i := 0; i < d; i++ {
		t.bucketCounters(i, cand[i], cnt[:l])
		for s := 0; s < l; s++ {
			if t.isFree(cnt[s]) {
				copies++
				ownedSlot[i] = int8(s)
				t.setSlotCounter(i, cand[i], s, uint64(copies))
				break
			}
		}
	}

	// Pass 2: overwrite redundant copies while the victim keeps a
	// two-copy lead, scanning for the currently largest slot counter
	// among buckets we do not own yet (fresh reads each round: an
	// earlier overwrite may have decremented a later candidate).
	for {
		bestTable, bestSlot, bestV := -1, -1, uint64(0)
		for i := 0; i < d; i++ {
			if ownedSlot[i] != noSlot {
				continue
			}
			t.bucketCounters(i, cand[i], cnt[:l])
			for s := 0; s < l; s++ {
				if v := cnt[s]; !t.isFree(v) && v > bestV {
					bestTable, bestSlot, bestV = i, s, v
				}
			}
		}
		if bestTable < 0 || bestV < uint64(copies)+2 {
			break
		}
		t.overwriteVictim(bestTable, cand[bestTable], bestSlot, bestV)
		copies++
		ownedSlot[bestTable] = int8(bestSlot)
		t.setSlotCounter(bestTable, cand[bestTable], bestSlot, uint64(copies))
	}

	if copies == 0 {
		return 0
	}
	t.commitPlacement(e, cand, ownedSlot[:d], copies)
	return copies
}

// commitPlacement writes the item's copies with mutual slot hints and
// raises their counters to the final copy count.
//
//mcvet:hotpath
func (t *BlockedTable) commitPlacement(e kv.Entry, cand []int, ownedSlot []int8, copies int) {
	var hints [4]int8
	for i := range hints {
		hints[i] = noSlot
	}
	for i, s := range ownedSlot {
		if s != noSlot {
			hints[i] = s
		}
	}
	for i, s := range ownedSlot {
		if s == noSlot {
			continue
		}
		t.writeSlot(t.cellIndex(i, cand[i], int(s)), e, hints)
		t.setSlotCounter(i, cand[i], int(s), uint64(copies))
	}
	t.copiesTotal += copies
	t.redundantWrites += int64(copies - 1)
}

// overwriteVictim evicts the redundant copy in (table, bucket, slot) whose
// item has v copies: the victim's surviving copies (located via the stored
// hints, one bucket read to fetch them) get decremented counters and their
// hint entry for this subtable cleared (one off-chip write each).
//
//mcvet:hotpath
func (t *BlockedTable) overwriteVictim(table, bucket, slot int, v uint64) {
	t.readBucketAccess()
	idx := t.cellIndex(table, bucket, slot)
	victimKey := t.cells[idx].Key
	hints := t.hints[idx]

	var vcand [hashutil.MaxD]int
	t.family.Indexes(victimKey, vcand[:])
	survivors := 0
	for j := 0; j < t.cfg.D; j++ {
		if j == table || hints[j] == noSlot {
			continue
		}
		jSlot := int(hints[j])
		jidx := t.cellIndex(j, vcand[j], jSlot)
		if t.cells[jidx].Key != victimKey {
			panic(fmt.Sprintf("core: stale hint: victim %#x not at (%d,%d,%d)", victimKey, j, vcand[j], jSlot))
		}
		t.setSlotCounter(j, vcand[j], jSlot, v-1)
		// Hint fix-up: the survivor no longer has a sibling here.
		t.hints[jidx][table] = noSlot
		t.meter.WriteOff(1)
		survivors++
	}
	if survivors != int(v)-1 {
		panic(fmt.Sprintf("core: victim %#x with counter %d had %d survivors", victimKey, v, survivors))
	}
	t.copiesTotal--
}

// resolveCollision runs the random walk at slot granularity.
//
//mcvet:hotpath
func (t *BlockedTable) resolveCollision(e kv.Entry, cand []int) kv.Outcome {
	cur := e
	var curCand [hashutil.MaxD]int
	copy(curCand[:], cand)
	prevTable := -1
	kicks := 0
	walk := t.walkRecord()
	for {
		if kicks >= t.cfg.MaxLoop {
			return t.overflowWalk(cur, curCand[:t.cfg.D], kicks)
		}
		r := t.pickVictim(curCand[:t.cfg.D], prevTable)
		s := t.rng.IntN(t.cfg.Slots)
		t.readBucketAccess()
		idx := t.cellIndex(r, curCand[r], s)
		victim := t.cells[idx]
		// Victims in a real collision are sole copies (all candidate
		// slot counters are 1), so no sibling bookkeeping is needed.
		var hints [4]int8
		for i := range hints {
			hints[i] = noSlot
		}
		hints[r] = int8(s)
		t.writeSlot(idx, cur, hints)
		walk[kicks] = uint8(r<<4 | s)
		kicks++
		cur = victim
		prevTable = r
		t.family.Indexes(cur.Key, curCand[:])
		if copies := t.place(cur, curCand[:t.cfg.D]); copies > 0 {
			t.size++
			t.stats.Kicks += int64(kicks)
			return kv.Outcome{Status: kv.Placed, Kicks: kicks}
		}
	}
}

// blockedScan carries what a candidate-bucket scan learned, for the stash
// pre-screen.
type blockedScan struct {
	foundTable int
	foundSlot  int
	flagAnd    bool
	earlyMiss  bool // an all-zero bucket proved the key was never inserted
}

// scanBuckets implements Algorithm 2's main-table walk: a candidate bucket
// whose counters are all free is skipped without an off-chip access (and,
// when all-zero with rule 1 active, proves a definite miss); every other
// candidate bucket is read once and its slots searched. Each bucket's
// counter read and bucket read are charged to m as they happen.
//
//mcvet:hotpath
func (t *BlockedTable) scanBuckets(key uint64, cand []int, m *memmodel.Meter) blockedScan {
	st := blockedScan{foundTable: -1, flagAnd: true}
	d, l := t.cfg.D, t.cfg.Slots
	var cnt [8]uint64
	for i := 0; i < d; i++ {
		base := t.cellIndex(i, cand[i], 0)
		m.ReadOn(1) // a bucket's l counters share one SRAM word
		live := false
		allZero := true
		for s := 0; s < l; s++ {
			cnt[s] = t.counters.Get(base + s)
			if !t.isFree(cnt[s]) {
				live = true
			}
			if cnt[s] != 0 {
				allZero = false
			}
		}
		if !live {
			if allZero && t.rule1Active() {
				st.earlyMiss = true
				return st
			}
			continue
		}
		m.ReadOff(1) // the whole bucket, its stash flag included
		st.flagAnd = st.flagAnd && t.flags.Get(t.bucketIndex(i, cand[i]))
		for s := 0; s < l; s++ {
			if !t.isFree(cnt[s]) && t.cells[base+s].Key == key {
				st.foundTable, st.foundSlot = i, s
				return st
			}
		}
	}
	return st
}

// shouldProbeStash applies the blocked pre-screen: an early miss never
// probes; otherwise the stash is consulted only when every flag observed
// during the scan was set (skipped buckets are neglected, §III.F/G).
//
//mcvet:hotpath
func (t *BlockedTable) shouldProbeStash(st blockedScan) bool {
	if t.overflow == nil || t.overflow.Len() == 0 {
		return false
	}
	if st.earlyMiss {
		return false
	}
	return st.flagAnd
}

// probe is the blocked table's one lookup: the bucket scan, then the stash
// when every flag the scan saw is set. Like Table.probe it charges every
// access to m in program order, reports whether it consulted the stash and
// writes nothing else.
//
//mcvet:hotpath
func (t *BlockedTable) probe(key uint64, m *memmodel.Meter) (value uint64, ok, stashProbed bool) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	st := t.scanBuckets(key, cand[:t.cfg.D], m)
	if st.foundTable >= 0 {
		return t.cells[t.cellIndex(st.foundTable, cand[st.foundTable], st.foundSlot)].Value, true, false
	}
	if !t.shouldProbeStash(st) {
		return 0, false, false
	}
	value, ok, offReads := t.overflow.Find(key)
	m.ReadOff(offReads)
	return value, ok, true
}

// Lookup returns the value stored for key.
//
//mcvet:hotpath
func (t *BlockedTable) Lookup(key uint64) (uint64, bool) {
	t.stats.Lookups++
	v, ok, stashProbed := t.probe(key, &t.meter)
	if stashProbed {
		t.stats.StashProbes++
	}
	if ok {
		t.stats.Hits++
	}
	return v, ok
}

// LookupReadOnlyTraced is Table.LookupReadOnlyTraced for the blocked table:
// the same probe as Lookup against a meter on its own stack.
//
//mcvet:hotpath
func (t *BlockedTable) LookupReadOnlyTraced(key uint64) (value uint64, ok, stashProbed bool, offReads int64) {
	var m memmodel.Meter
	value, ok, stashProbed = t.probe(key, &m)
	return value, ok, stashProbed, m.OffChipReads
}

// Delete removes key (Algorithm 3): the first live copy's slot hints reveal
// every sibling, so all copies are released by resetting their on-chip
// counters — zero off-chip writes.
//
//mcvet:hotpath
func (t *BlockedTable) Delete(key uint64) bool {
	t.stats.Deletes++
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	st := t.scanBuckets(key, cand[:t.cfg.D], &t.meter)
	if st.foundTable >= 0 {
		idx := t.cellIndex(st.foundTable, cand[st.foundTable], st.foundSlot)
		hints := t.hints[idx]
		hints[st.foundTable] = int8(st.foundSlot)
		mark := uint64(0)
		if t.cfg.Deletion == Tombstone {
			mark = t.tombstoneVal
		}
		released := 0
		for j := 0; j < t.cfg.D; j++ {
			if hints[j] == noSlot {
				continue
			}
			t.setSlotCounter(j, cand[j], int(hints[j]), mark)
			released++
		}
		t.copiesTotal -= released
		t.size--
		t.deletedAny = true
		return true
	}
	if t.shouldProbeStash(st) {
		t.stats.StashProbes++
		if t.overflow.Delete(key) {
			t.deletedAny = true
			return true
		}
	}
	return false
}
