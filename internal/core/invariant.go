package core

import (
	"fmt"

	"mccuckoo/internal/hashutil"
)

// CheckInvariants exhaustively validates the table's internal consistency.
// Every load runs it on the table it built, and tests run it after their
// operations. It is O(capacity · d · l), allocates nothing per key, and
// charges no memory traffic.
//
// Verified properties:
//
//   - every live cell's counter is at most d, and its stored key hashes to
//     that bucket (copies only live in candidate positions);
//   - for every live item, the number of cells holding its key in its d
//     candidate buckets equals the counter value of each of those cells
//     (counter consistency, the property the paper's counters encode);
//   - on a blocked table, every live slot's hint vector points exactly at
//     the item's live copies (checkHints);
//   - size equals the number of distinct live keys and copiesTotal the
//     number of live copies;
//   - before any deletion, no live item has an all-empty candidate bucket;
//   - no live key also sits in the stash.
func (s *tableState) CheckInvariants() error {
	d, n, l := s.cfg.D, s.cfg.BucketsPerTable, s.cfg.Slots
	items, liveCopies := 0, 0
	hints := s.algo.hintsRef()
	var cand [hashutil.MaxD]int

	for table := 0; table < d; table++ {
		for bucket := 0; bucket < n; bucket++ {
			for slot := 0; slot < l; slot++ {
				idx := s.cellIndex(table, bucket, slot)
				c := s.counters.Get(idx)
				if s.isFree(c) {
					continue
				}
				if c > uint64(d) {
					return fmt.Errorf("cell (%d,%d,%d): counter %d exceeds d=%d", table, bucket, slot, c, d)
				}
				key := s.cells[idx].Key
				s.family.Indexes(key, cand[:])
				if cand[table] != bucket {
					return fmt.Errorf("cell (%d,%d,%d): key %#x does not hash here", table, bucket, slot, key)
				}
				if hints != nil {
					if err := s.checkHints(*hints, cand[:], table, bucket, slot, key, c); err != nil {
						return err
					}
				}
				liveCopies++
				// The key's other checks run once, at its first copy in
				// table order.
				if s.liveCopyBefore(key, cand[:], idx) {
					continue
				}
				items++
				if err := s.checkCopies(key, cand[:d], c); err != nil {
					return err
				}
			}
		}
	}
	if items != s.size {
		return fmt.Errorf("size = %d but %d distinct live keys found", s.size, items)
	}
	if liveCopies != s.copiesTotal {
		return fmt.Errorf("copiesTotal = %d but %d live copies found", s.copiesTotal, liveCopies)
	}
	if s.overflow != nil {
		for _, e := range s.overflow.Entries() {
			s.family.Indexes(e.Key, cand[:])
			if s.liveCopyBefore(e.Key, cand[:], len(s.cells)) {
				return fmt.Errorf("key %#x is both live and stashed", e.Key)
			}
		}
	}
	return nil
}

// liveCopyBefore reports whether a live cell before cell end, in table
// order, holds key in one of its candidate buckets cand.
func (s *tableState) liveCopyBefore(key uint64, cand []int, end int) bool {
	for j := 0; j < s.cfg.D; j++ {
		for slot := 0; slot < s.cfg.Slots; slot++ {
			idx := s.cellIndex(j, cand[j], slot)
			if idx >= end {
				return false
			}
			if s.cells[idx].Key == key && !s.isFree(s.counters.Get(idx)) {
				return true
			}
		}
	}
	return false
}

// checkCopies counts key's live copies over its candidate buckets cand:
// each must carry counter c, and there must be c of them. Before any
// deletion, no candidate bucket may be all empty either: insertion takes a
// cell in every such bucket, and only deletion zeroes counters. Lookup rule
// 1 (the Bloom-filter shortcut) is sound precisely because of this.
func (s *tableState) checkCopies(key uint64, cand []int, c uint64) error {
	copies := uint64(0)
	for j, bucket := range cand {
		empty := true
		for slot := 0; slot < s.cfg.Slots; slot++ {
			idx := s.cellIndex(j, bucket, slot)
			jc := s.counters.Get(idx)
			empty = empty && jc == 0
			if s.isFree(jc) || s.cells[idx].Key != key {
				continue
			}
			if jc != c {
				return fmt.Errorf("key %#x: copies disagree on counter (%d vs %d)", key, c, jc)
			}
			copies++
		}
		if empty && !s.deletedAny {
			return fmt.Errorf("key %#x has an all-empty candidate bucket in table %d before any deletion", key, j)
		}
	}
	if copies != c {
		return fmt.Errorf("key %#x: %d live copies but counter says %d", key, copies, c)
	}
	return nil
}

// checkHints verifies the hint vector of one live blocked slot, whose key
// has candidate buckets cand: hints[j] names a slot in subtable j holding
// the same key with the same counter, hints for absent copies are noSlot,
// and the item's own entry names its own slot.
func (s *tableState) checkHints(hints [][4]int8, cand []int, table, bucket, slot int, key, c uint64) error {
	h := hints[s.cellIndex(table, bucket, slot)]
	if h[table] != int8(slot) {
		return fmt.Errorf("cell (%d,%d,%d): own hint %d, want %d", table, bucket, slot, h[table], slot)
	}
	hinted := 0
	for j := 0; j < s.cfg.D; j++ {
		if h[j] == noSlot {
			continue
		}
		hinted++
		jidx := s.cellIndex(j, cand[j], int(h[j]))
		if s.cells[jidx].Key != key {
			return fmt.Errorf("cell (%d,%d,%d): hint[%d]=%d points at key %#x, not %#x",
				table, bucket, slot, j, h[j], s.cells[jidx].Key, key)
		}
		if jc := s.counters.Get(jidx); jc != c {
			return fmt.Errorf("key %#x: hinted copy at table %d has counter %d, want %d", key, j, jc, c)
		}
	}
	if uint64(hinted) != c {
		return fmt.Errorf("cell (%d,%d,%d): key %#x counter %d but %d hinted copies",
			table, bucket, slot, key, c, hinted)
	}
	return nil
}
