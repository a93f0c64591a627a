package core

import (
	"fmt"

	"mccuckoo/internal/hashutil"
)

// CheckInvariants exhaustively validates the table's internal consistency.
// It is O(capacity · d) and meant for tests and debugging, not production
// paths; it charges no memory traffic.
//
// Verified properties:
//
//   - every live cell's stored key hashes to that bucket (copies only live
//     in candidate positions);
//   - for every live item, the number of cells holding its key equals the
//     counter value of each of those cells (counter consistency);
//   - on a blocked table, every live slot's hint vector points exactly at
//     the item's live copies (checkHints);
//   - size equals the number of distinct live keys and copiesTotal the
//     number of live copies;
//   - no live key also sits in the stash.
func (s *tableState) CheckInvariants() error {
	d, n, l := s.cfg.D, s.cfg.BucketsPerTable, s.cfg.Slots
	type info struct {
		copies int
		cnt    uint64
	}
	items := make(map[uint64]*info)
	liveCopies := 0
	hints := s.algo.hintsRef()

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
				if s.family.Index(table, key) != bucket {
					return fmt.Errorf("cell (%d,%d,%d): key %#x does not hash here", table, bucket, slot, key)
				}
				if hints != nil {
					if err := s.checkHints(*hints, table, bucket, slot, key, c); err != nil {
						return err
					}
				}
				liveCopies++
				it := items[key]
				if it == nil {
					items[key] = &info{copies: 1, cnt: c}
					continue
				}
				if it.cnt != c {
					return fmt.Errorf("key %#x: copies disagree on counter (%d vs %d)", key, it.cnt, c)
				}
				it.copies++
			}
		}
	}
	for key, it := range items {
		if uint64(it.copies) != it.cnt {
			return fmt.Errorf("key %#x: %d live copies but counter says %d", key, it.copies, it.cnt)
		}
	}
	// Before any deletion, an inserted item can never have a candidate
	// bucket whose cells are all empty: insertion takes a cell in every such
	// bucket, and only deletion zeroes counters. Lookup rule 1 (the
	// Bloom-filter shortcut) is sound precisely because of this.
	if !s.deletedAny {
		var cand [hashutil.MaxD]int
		for key := range items {
			s.family.Indexes(key, cand[:])
			for j := 0; j < d; j++ {
				empty := true
				for slot := 0; slot < l; slot++ {
					if s.counters.Get(s.cellIndex(j, cand[j], slot)) != 0 {
						empty = false
						break
					}
				}
				if empty {
					return fmt.Errorf("key %#x has an all-empty candidate bucket in table %d before any deletion", key, j)
				}
			}
		}
	}
	if len(items) != s.size {
		return fmt.Errorf("size = %d but %d distinct live keys found", s.size, len(items))
	}
	if liveCopies != s.copiesTotal {
		return fmt.Errorf("copiesTotal = %d but %d live copies found", s.copiesTotal, liveCopies)
	}
	if s.overflow != nil {
		for _, e := range s.overflow.Entries() {
			if _, dup := items[e.Key]; dup {
				return fmt.Errorf("key %#x is both live and stashed", e.Key)
			}
		}
	}
	return nil
}

// checkHints verifies the hint vector of one live blocked slot: hints[j]
// names a slot in subtable j holding the same key with the same counter,
// hints for absent copies are noSlot, and the item's own entry names its
// own slot.
func (s *tableState) checkHints(hints [][4]int8, table, bucket, slot int, key, c uint64) error {
	h := hints[s.cellIndex(table, bucket, slot)]
	if h[table] != int8(slot) {
		return fmt.Errorf("cell (%d,%d,%d): own hint %d, want %d", table, bucket, slot, h[table], slot)
	}
	var cand [hashutil.MaxD]int
	s.family.Indexes(key, cand[:])
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
