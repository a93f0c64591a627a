package core

import "mccuckoo/internal/hashutil"

// LookupReadOnlyTraced answers a lookup without mutating any table state —
// no meter charges, no stats — and reports the off-chip reads the lookup
// would have charged to the meter (bucket reads plus stash group probes).
// It applies exactly the same principles as Lookup, the counter pre-screen
// or (with DisablePrescreen) the in-order scan, and exists so that many
// readers can run in parallel under a read lock (see internal/shard);
// property tests assert it always agrees with Lookup. The count feeds the
// telemetry off-chip-accesses-per-lookup histograms from that concurrent
// read path, where the shared meter cannot be touched; it matches what
// Lookup charges for the same table state.
func (t *Table) LookupReadOnlyTraced(key uint64) (value uint64, ok bool, offReads int64) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	d := t.cfg.D

	var cnt [hashutil.MaxD]uint64
	anyZero := false
	for i := 0; i < d; i++ {
		cnt[i] = t.counters.Get(t.bucketIndex(i, cand[i]))
		if cnt[i] == 0 {
			anyZero = true
		}
	}
	flagAnd := true
	if t.cfg.DisablePrescreen {
		// scanAll: every candidate in order until a live copy matches.
		for i := 0; i < d; i++ {
			idx := t.bucketIndex(i, cand[i])
			offReads++
			flagAnd = flagAnd && t.flags.Get(idx)
			if t.cells[idx].Key == key && !t.isFree(cnt[i]) {
				return t.cells[idx].Value, true, offReads
			}
		}
	} else {
		if anyZero && t.rule1Active() {
			return 0, false, 0
		}
		for v := uint64(d); v >= 1; v-- {
			var group [hashutil.MaxD]int
			s := 0
			for i := 0; i < d; i++ {
				if cnt[i] == v {
					group[s] = i
					s++
				}
			}
			if s == 0 || s < int(v) {
				continue
			}
			budget := s - int(v) + 1
			for k := 0; k < s && budget > 0; k++ {
				i := group[k]
				budget--
				idx := t.bucketIndex(i, cand[i])
				offReads++
				flagAnd = flagAnd && t.flags.Get(idx)
				if t.cells[idx].Key == key {
					return t.cells[idx].Value, true, offReads
				}
			}
		}
	}
	if t.overflow == nil || t.overflow.Len() == 0 {
		return 0, false, offReads
	}
	// shouldProbeStash: the flags of the buckets read, and before any
	// deletion under the pre-screen, all-1 counters too.
	probe := flagAnd
	if !t.cfg.DisablePrescreen && !t.deletedAny {
		for i := 0; i < d; i++ {
			if cnt[i] != 1 {
				probe = false
			}
		}
	}
	if probe {
		v, ok, stashReads := t.overflow.PeekTraced(key)
		offReads += stashReads
		if ok {
			return v, ok, offReads
		}
	}
	return 0, false, offReads
}

// LookupReadOnlyTraced is the blocked-table counterpart of
// Table.LookupReadOnlyTraced: a whole bucket (all l slots) is one off-chip
// read, as in the paper's access model.
func (t *BlockedTable) LookupReadOnlyTraced(key uint64) (value uint64, ok bool, offReads int64) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])
	d, l := t.cfg.D, t.cfg.Slots

	flagAnd := true
	for i := 0; i < d; i++ {
		base := t.cellIndex(i, cand[i], 0)
		live := false
		allZero := true
		var cnt [8]uint64
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
				return 0, false, offReads
			}
			continue
		}
		offReads++
		flagAnd = flagAnd && t.flags.Get(t.bucketIndex(i, cand[i]))
		for s := 0; s < l; s++ {
			if !t.isFree(cnt[s]) && t.cells[base+s].Key == key {
				return t.cells[base+s].Value, true, offReads
			}
		}
	}
	if t.overflow == nil || t.overflow.Len() == 0 || !flagAnd {
		return 0, false, offReads
	}
	v, ok, stashReads := t.overflow.PeekTraced(key)
	return v, ok, offReads + stashReads
}
