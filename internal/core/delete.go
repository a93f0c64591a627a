package core

import "mccuckoo/internal/hashutil"

// Delete removes key. All copies are located using the lookup principles,
// then only their on-chip counters are reset (ResetCounters) or marked
// (Tombstone) — the paper's point: a deletion costs zero off-chip writes
// (§III.B.3, §IV.D). A miss consults the stash subject to the pre-screen.
//
//mcvet:hotpath
func (t *Table) Delete(key uint64) bool {
	t.stats.Deletes++
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])

	var locBuf [hashutil.MaxD]int
	var st scanState
	tables, ok := t.locateCopies(key, cand[:t.cfg.D], &locBuf, &st)
	if ok {
		mark := uint64(0)
		if t.cfg.Deletion == Tombstone {
			mark = t.tombstoneVal
		}
		for _, i := range tables {
			t.setCounter(i, cand[i], mark)
		}
		t.copiesTotal -= len(tables)
		t.size--
		t.deletedAny = true
		return true
	}
	if t.shouldProbeStash(&st, cand[:t.cfg.D]) {
		t.stats.StashProbes++
		if t.overflow.Delete(key) {
			// Flags are intentionally left set (they behave like a
			// Bloom filter and do not support deletion, §III.F);
			// RefreshStashFlags resynchronizes them.
			t.deletedAny = true
			return true
		}
	}
	return false
}
