package core

import (
	"math/bits"

	"mccuckoo/internal/bitpack"
	"mccuckoo/internal/hashutil"
)

// Repair rebuilds all derived state from the authoritative off-chip content.
//
// McCuckoo's design splits the table into authoritative off-chip state (the
// bucket keys/values, the blocked tables' slot hints, and the stash) and
// derived on-chip state (the copy counters, the stash flags, and the
// size/copiesTotal bookkeeping). The derived state is exactly what a power
// loss or SRAM fault wipes — and, because deletion is an on-chip-only
// operation (§III.B.3), it is also the only record that a deletion ever
// happened. Repair is the recovery story for that split: a full off-chip
// scan that reconstitutes counters, flags, hints, and bookkeeping, clearing
// anything the buckets cannot corroborate.
//
// Liveness rule. A key K found in its own candidate bucket is live iff
// either (a) at least one of its candidate copies still has a non-free
// counter — corroborating evidence that some of the on-chip record survived
// — or (b) the table has never processed a deletion and K != 0, in which
// case stale bucket content cannot exist and every stored key is live (K = 0
// is excluded because an all-zero bucket is indistinguishable from a
// never-written one; key 0 survives repair only through counter evidence).
// Which slot of each candidate bucket holds a live key's copy is the kind's
// call (repairCopies): the single-slot table has one, the blocked table
// resolves several by evidence and hint vote.
//
// Consequences, documented rather than hidden:
//
//   - Deletions may roll back. A deletion writes nothing off-chip, so if
//     every counter of a deleted key is simultaneously lost AND corrupted
//     back to non-free, Repair resurrects the key with its pre-deletion
//     value. Conversely a key whose every copy counter was zeroed on a
//     table that has deleted is indistinguishable from a deleted key and
//     stays dead.
//   - Aliens are cleared. A cell whose stored key does not hash there
//     (off-chip corruption) cannot be a copy of anything; its counter is
//     zeroed and the item survives through its sibling copies — the
//     multi-copy redundancy doubling as fault tolerance.
//   - Stash flags are resynchronized to the stash's current content,
//     subsuming stale Bloom bits left by stash deletions.
//   - In Tombstone mode every non-live cell still holding a key is re-marked
//     with the tombstone value: after on-chip loss it is unknowable which
//     dead cells carried deletion marks, and under-marking would let the
//     rule-1 lookup shortcut miss live keys whose candidate buckets filled
//     up and later emptied.
//
// Repair charges the meter like the rebuild it is: one off-chip read per
// bucket scanned, one on-chip write per counter changed, one off-chip write
// per flag, hint, or value fixed. Two repairs of the same damaged state must
// converge to the same table, so the rebuild may not depend on clocks,
// randomness, or iteration order.
//
//mcvet:setter counters
//mcvet:deterministic
func (s *tableState) Repair() RepairReport {
	d, n, l := s.cfg.D, s.cfg.BucketsPerTable, s.cfg.Slots
	rep := RepairReport{SizeBefore: s.size, CopiesBefore: s.copiesTotal}
	s.meter.ReadOff(int64(d * n))

	// Pass 1: group valid-position cell content by key, noting which copies
	// the surviving counters corroborate.
	found := make(map[uint64]repairKey, s.size)
	for j := 0; j < d; j++ {
		for b := 0; b < n; b++ {
			for slot := 0; slot < l; slot++ {
				idx := s.cellIndex(j, b, slot)
				key := s.cells[idx].Key
				c := s.counters.Get(idx)
				if s.family.Index(j, key) != b {
					if !s.isFree(c) {
						rep.AliensCleared++
					}
					continue
				}
				if key == 0 && s.isFree(c) {
					continue // indistinguishable from a never-written cell
				}
				k := found[key]
				k.slots[j] |= 1 << slot
				if !s.isFree(c) {
					k.evid[j] |= 1 << slot
					k.evidence = true
				}
				found[key] = k
			}
		}
	}

	// Pass 2: rebuild counters for every live key; repair divergent values
	// from an evidenced copy, and on blocked tables the hint vectors.
	newCounters, err := bitpack.NewCounters(d*n*l, s.cfg.counterWidth())
	if err != nil {
		panic(err) // geometry already validated at construction
	}
	hints := s.algo.hintsRef()
	live := make(map[uint64]struct{}, len(found))
	newSize, newCopies := 0, 0
	var cand [hashutil.MaxD]int
	// Each key rebuilds only its own candidate slots, which are disjoint
	// across keys, so the per-key work commutes and the final state is
	// iteration-order independent.
	//mcvet:allow nodeterminism per-key rebuild touches disjoint slots; order-independent
	for key, k := range found {
		if !k.evidence && (s.deletedAny || key == 0) {
			continue // stale (or unknowable) content stays dead
		}
		s.family.Indexes(key, cand[:])
		sel := s.algo.repairCopies(k, cand[:])
		copies := 0
		for j := 0; j < d; j++ {
			if sel[j] != noSlot {
				copies++
			}
		}
		if copies == 0 {
			continue // hint vote rejected every uncorroborated slot
		}

		// Value consensus: majority vote over the chosen copies, evidenced
		// copies breaking ties — so a single corrupted value among three
		// copies is outvoted, not propagated. At most d distinct values
		// compete, so they are tallied in place.
		var vals [hashutil.MaxD]uint64
		var votes [hashutil.MaxD]int
		var val uint64
		distinct, best := 0, -1
		for j := 0; j < d; j++ {
			if sel[j] == noSlot {
				continue
			}
			idx := s.cellIndex(j, cand[j], int(sel[j]))
			cv := s.cells[idx].Value
			w := 2
			if !s.isFree(s.counters.Get(idx)) {
				w = 3 // evidenced copies outrank equally-split others
			}
			v := 0
			for v < distinct && vals[v] != cv {
				v++
			}
			if v == distinct {
				vals[v] = cv
				distinct++
			}
			votes[v] += w
			if votes[v] > best {
				best = votes[v]
				val = cv
			}
		}
		for j := 0; j < d; j++ {
			if sel[j] == noSlot {
				continue
			}
			idx := s.cellIndex(j, cand[j], int(sel[j]))
			newCounters.Set(idx, uint64(copies))
			if s.cells[idx].Value != val {
				s.cells[idx].Value = val
				s.meter.WriteOff(1)
				rep.ValuesFixed++
			}
			if hints != nil && (*hints)[idx] != sel {
				(*hints)[idx] = sel
				s.meter.WriteOff(1)
				rep.HintsFixed++
			}
		}
		live[key] = struct{}{}
		newSize++
		newCopies += copies
	}

	// In Tombstone mode, re-mark every dead cell that still holds a key:
	// conservative deletion marks keep the rule-1 shortcut sound (see the
	// function comment).
	if s.tombstoneVal != 0 {
		for idx := range s.cells {
			if s.cells[idx].Key != 0 && newCounters.Get(idx) == 0 {
				newCounters.Set(idx, s.tombstoneVal)
			}
		}
	}

	rep.CountersFixed = installCounters(s.counters, newCounters, &s.meter)
	s.counters = newCounters
	rep.FlagsFixed, rep.StashDropped = s.rebuildStashState(live, cand[:])
	s.size, s.copiesTotal = newSize, newCopies
	rep.SizeAfter, rep.CopiesAfter = newSize, newCopies
	if rep.AliensCleared > 0 {
		// Clearing an alien frees a cell a live key may have had a copy
		// in — the same hole a deletion leaves, so the never-deleted
		// shortcuts no longer hold.
		s.deletedAny = true
	}
	return rep
}

// repairKey is what Repair's off-chip scan learned about one key: per
// subtable, the bitmask of candidate-bucket slots storing it and the
// counter-corroborated subset.
type repairKey struct {
	slots    [hashutil.MaxD]uint8
	evid     [hashutil.MaxD]uint8
	evidence bool
}

// repairCopies takes every subtable whose candidate bucket stores the key:
// a single-slot bucket holds at most one candidate copy.
func (t *Table) repairCopies(k repairKey, _ []int) [4]int8 {
	sel := [4]int8{noSlot, noSlot, noSlot, noSlot}
	for j := 0; j < t.cfg.D; j++ {
		if k.slots[j] != 0 {
			sel[j] = 0
		}
	}
	return sel
}

// repairCopies resolves the copy slot per subtable. The blocked layout adds
// one ambiguity the single-slot table cannot have: a candidate bucket may
// hold both a live copy of a key and a stale one (a reinsertion after
// deletion may land in a different slot of the same bucket). The copy is
// resolved in order of trust: a single counter-corroborated slot wins
// outright; among several, the hint vectors of the key's corroborated
// copies in other subtables vote (hints are stored off-chip with the items
// and survive on-chip loss); with no corroboration at all, the hint vote
// alone decides, except on a never-deleted table where stale slots cannot
// exist and the stored slot is taken as-is. Lanes beyond d stay noSlot,
// matching the stored hint-vector convention, so Repair can write the
// result back as every chosen copy's hint vector.
func (t *BlockedTable) repairCopies(k repairKey, cand []int) [4]int8 {
	sel := [4]int8{noSlot, noSlot, noSlot, noSlot}
	for j := 0; j < t.cfg.D; j++ {
		slots, evid := k.slots[j], k.evid[j]
		switch {
		case bits.OnesCount8(evid) == 1:
			sel[j] = lowestSlot(evid)
		case evid != 0:
			if v := t.hintVote(k.evid, cand, j, evid); v != noSlot {
				sel[j] = v
			} else {
				sel[j] = lowestSlot(evid)
			}
		case slots == 0:
			// no copy in this subtable
		case !t.deletedAny:
			sel[j] = lowestSlot(slots) // stale slots cannot exist
		default:
			sel[j] = t.hintVote(k.evid, cand, j, slots)
		}
	}
	return sel
}

// lowestSlot returns the lowest slot in a non-empty slot mask.
func lowestSlot(mask uint8) int8 { return int8(bits.TrailingZeros8(mask)) }

// hintVote tallies, among the key's counter-corroborated copies in subtables
// other than j, what slot their stored hint vectors name for subtable j, and
// returns the majority choice provided it is one of the allowed slots (ties
// break to the lowest slot). noSlot means no usable vote.
func (t *BlockedTable) hintVote(evid [hashutil.MaxD]uint8, cand []int, j int, allowed uint8) int8 {
	var votes [4]int
	any := false
	for k := 0; k < t.cfg.D; k++ {
		if k == j {
			continue
		}
		for m := evid[k]; m != 0; m &= m - 1 {
			h := t.hints[t.cellIndex(k, cand[k], int(lowestSlot(m)))][j]
			if h != noSlot && allowed&(1<<h) != 0 {
				votes[h]++
				any = true
			}
		}
	}
	if !any {
		return noSlot
	}
	best := noSlot
	for s := len(votes) - 1; s >= 0; s-- {
		if votes[s] > 0 && (best == noSlot || votes[s] >= votes[best]) {
			best = int8(s)
		}
	}
	return best
}

// rebuildStashState drops stash entries shadowed by a live main-table copy
// and resynchronizes the per-bucket stash flags to the surviving entries.
//
//mcvet:setter flags
func (s *tableState) rebuildStashState(live map[uint64]struct{}, cand []int) (flagsFixed, stashDropped int) {
	newFlags, err := bitpack.NewBitset(s.flags.Len())
	if err != nil {
		panic(err)
	}
	if s.overflow != nil {
		for _, e := range s.overflow.Entries() {
			if _, dup := live[e.Key]; dup {
				s.overflow.Delete(e.Key)
				stashDropped++
				continue
			}
			s.family.Indexes(e.Key, cand)
			for j := 0; j < s.cfg.D; j++ {
				newFlags.Set(s.bucketIndex(j, cand[j]))
			}
		}
	}
	flagsFixed = installFlags(s.flags, newFlags, &s.meter)
	s.flags = newFlags
	return flagsFixed, stashDropped
}
