package core

import "mccuckoo/internal/hashutil"

// Range calls fn for every distinct live item (stash included) until fn
// returns false. Each item is reported exactly once even when it has
// multiple copies: a copy is reported only from the lowest-numbered subtable
// holding one, determined with O(d) counter checks and no extra memory.
// Iteration order is unspecified. Range charges no memory traffic; it is a
// maintenance/inspection operation, not part of the paper's workload model.
func (t *Table) Range(fn func(key, value uint64) bool) {
	d, n := t.cfg.D, t.cfg.BucketsPerTable
	var cand [hashutil.MaxD]int
	for table := 0; table < d; table++ {
		for bucket := 0; bucket < n; bucket++ {
			idx := t.bucketIndex(table, bucket)
			c := t.counters.Get(idx)
			if t.isFree(c) {
				continue
			}
			key := t.cells[idx].Key
			if c > 1 {
				// Skip unless this is the first subtable holding
				// a copy of key.
				t.family.Indexes(key, cand[:])
				first := true
				for j := 0; j < table; j++ {
					jidx := t.bucketIndex(j, cand[j])
					if t.counters.Get(jidx) == c && t.cells[jidx].Key == key {
						first = false
						break
					}
				}
				if !first {
					continue
				}
			}
			if !fn(key, t.cells[idx].Value) {
				return
			}
		}
	}
	if t.overflow != nil {
		for _, e := range t.overflow.Entries() {
			if !fn(e.Key, e.Value) {
				return
			}
		}
	}
}

// Range calls fn for every distinct live item of the blocked table, exactly
// as Table.Range. Copies are reported from their lowest (subtable, slot)
// position using the stored slot hints.
func (t *BlockedTable) Range(fn func(key, value uint64) bool) {
	d, n, l := t.cfg.D, t.cfg.BucketsPerTable, t.cfg.Slots
	for table := 0; table < d; table++ {
		for bucket := 0; bucket < n; bucket++ {
			for slot := 0; slot < l; slot++ {
				idx := t.cellIndex(table, bucket, slot)
				c := t.counters.Get(idx)
				if t.isFree(c) {
					continue
				}
				// The hints name every copy's subtable; report
				// only from the lowest one.
				hints := t.hints[idx]
				first := true
				for j := 0; j < table; j++ {
					if hints[j] != noSlot {
						first = false
						break
					}
				}
				if !first {
					continue
				}
				if !fn(t.cells[idx].Key, t.cells[idx].Value) {
					return
				}
			}
		}
	}
	if t.overflow != nil {
		for _, e := range t.overflow.Entries() {
			if !fn(e.Key, e.Value) {
				return
			}
		}
	}
}
