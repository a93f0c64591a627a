package core

import (
	"fmt"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// FindPath searches for a cuckoo path at slot granularity without mutating
// the table, mirroring Table.FindPath. Paths are bucket-disjoint. ok is
// false when no path within MaxLoop hops exists.
func (t *BlockedTable) FindPath(key uint64) ([]PathMove, bool) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])

	path := make([]PathMove, 0, 8)
	curTable := t.rng.IntN(t.cfg.D)
	curBucket := cand[curTable]
	curSlot := t.rng.IntN(t.cfg.Slots)
	visited := map[int]bool{t.bucketIndex(curTable, curBucket): true}
	var cnt [8]uint64
	for hop := 0; hop < t.cfg.MaxLoop; hop++ {
		t.readBucketAccess(curTable, curBucket)
		victim := t.cells[t.cellIndex(curTable, curBucket, curSlot)].Key
		var vcand [hashutil.MaxD]int
		t.family.Indexes(victim, vcand[:])

		// A usable destination is any slot with counter != 1 in one of
		// the victim's other, unvisited candidate buckets.
		for j := 0; j < t.cfg.D; j++ {
			if j == curTable || visited[t.bucketIndex(j, vcand[j])] {
				continue
			}
			t.bucketCounters(j, vcand[j], cnt[:t.cfg.Slots])
			for s := 0; s < t.cfg.Slots; s++ {
				if cnt[s] != 1 {
					path = append(path, PathMove{
						Key:       victim,
						FromTable: curTable, FromBucket: curBucket, FromSlot: curSlot,
						ToTable: j, ToBucket: vcand[j], ToSlot: s,
					})
					return path, true
				}
			}
		}
		// Extend through a random unvisited candidate bucket and slot.
		var opts [hashutil.MaxD]int
		nOpts := 0
		for j := 0; j < t.cfg.D; j++ {
			if j != curTable && !visited[t.bucketIndex(j, vcand[j])] {
				opts[nOpts] = j
				nOpts++
			}
		}
		if nOpts == 0 {
			return nil, false
		}
		next := opts[t.rng.IntN(nOpts)]
		nextSlot := t.rng.IntN(t.cfg.Slots)
		path = append(path, PathMove{
			Key:       victim,
			FromTable: curTable, FromBucket: curBucket, FromSlot: curSlot,
			ToTable: next, ToBucket: vcand[next], ToSlot: nextSlot,
		})
		curTable, curBucket, curSlot = next, vcand[next], nextSlot
		visited[t.bucketIndex(curTable, curBucket)] = true
	}
	return nil, false
}

// ApplyMove executes one blocked path hop (last hop first). The moved item
// briefly holds two mutually hinted copies — a state the blocked table
// represents natively, so invariants hold between moves.
func (t *BlockedTable) ApplyMove(m PathMove) error {
	destIdx := t.cellIndex(m.ToTable, m.ToBucket, m.ToSlot)
	destCnt := t.counters.Get(destIdx)
	t.meter.ReadOn(1)
	switch {
	case t.isFree(destCnt):
	case destCnt >= 2:
		t.overwriteVictim(m.ToTable, m.ToBucket, m.ToSlot, destCnt)
	default:
		return fmt.Errorf("core: blocked path destination (%d,%d,%d) holds a sole copy",
			m.ToTable, m.ToBucket, m.ToSlot)
	}
	srcIdx := t.cellIndex(m.FromTable, m.FromBucket, m.FromSlot)
	src := t.cells[srcIdx]
	if src.Key != m.Key {
		return fmt.Errorf("core: blocked path source changed: want key %#x, found %#x", m.Key, src.Key)
	}
	if c := t.counters.Get(srcIdx); c != 1 {
		return fmt.Errorf("core: blocked path mover %#x had counter %d, want 1", m.Key, c)
	}
	// Write the new copy with mutual hints and refresh the source's hints
	// to point at its sibling.
	var hints [4]int8
	for i := range hints {
		hints[i] = noSlot
	}
	hints[m.FromTable] = int8(m.FromSlot)
	hints[m.ToTable] = int8(m.ToSlot)
	t.writeSlot(destIdx, src, hints)
	t.hints[srcIdx] = hints
	t.meter.WriteOff(1) // hint fix-up write on the source record
	t.setSlotCounter(m.FromTable, m.FromBucket, m.FromSlot, 2)
	t.setSlotCounter(m.ToTable, m.ToBucket, m.ToSlot, 2)
	t.copiesTotal++
	t.redundantWrites++
	return nil
}

// FinishPath installs key/value into the slot the path head vacated (which
// now holds a redundant copy of the head's item).
func (t *BlockedTable) FinishPath(key, value uint64, head PathMove, pathLen int) kv.Outcome {
	t.overwriteVictim(head.FromTable, head.FromBucket, head.FromSlot, 2)
	var hints [4]int8
	for i := range hints {
		hints[i] = noSlot
	}
	hints[head.FromTable] = int8(head.FromSlot)
	t.writeSlot(t.cellIndex(head.FromTable, head.FromBucket, head.FromSlot),
		kv.Entry{Key: key, Value: value}, hints)
	t.setSlotCounter(head.FromTable, head.FromBucket, head.FromSlot, 1)
	t.copiesTotal++
	t.size++
	t.stats.Kicks += int64(pathLen)
	return kv.Outcome{Status: kv.Placed, Kicks: pathLen}
}
