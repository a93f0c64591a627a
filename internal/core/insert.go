package core

import (
	"fmt"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// Insert stores key/value following the paper's insertion principles
// (§III.B.1):
//
//  1. occupy all empty candidate buckets with copies,
//  2. never overwrite counter-1 buckets,
//  3. overwrite the remaining candidates in decreasing counter order while
//     the victim still has at least two more copies than the inserted item.
//
// When every candidate holds a sole copy (all counters 1), a counter-guided
// random walk relocates items; if the walk exceeds MaxLoop the item goes to
// the stash and the flags of its candidate buckets are set.
//
//mcvet:hotpath
func (t *Table) Insert(key, value uint64) kv.Outcome {
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

// updateExisting checks for an existing copy of key and updates all its
// copies in place. It reports whether the insert was handled.
//
//mcvet:hotpath
func (t *Table) updateExisting(key, value uint64, cand []int) (kv.Outcome, bool) {
	var locBuf [hashutil.MaxD]int
	locs, _ := t.findCopies(key, cand, &locBuf)
	if len(locs) > 0 {
		for _, table := range locs {
			t.writeBucket(table, cand[table], kv.Entry{Key: key, Value: value})
		}
		t.stats.Updates++
		return kv.Outcome{Status: kv.Updated}, true
	}
	return t.updateStash(key, value)
}

// place applies the insertion principles to e. It returns the number of
// copies placed; 0 means a real collision (all candidates are sole copies).
//
// Counter discipline: each bucket the item takes gets its counter set to the
// running copy count immediately, which keeps every intermediate counter
// value strictly below any overwritable victim's count (a victim requires
// V >= copies+2), so the victim-copy identification below can never confuse
// a freshly taken bucket with a victim copy. All taken buckets are raised to
// the final count at the end.
//
//mcvet:hotpath
func (t *Table) place(e kv.Entry, cand []int) int {
	d := t.cfg.D
	var owned [hashutil.MaxD]bool
	copies := 0

	// Principle 1: occupy every free candidate.
	for i := 0; i < d; i++ {
		if t.isFree(t.counterAt(i, cand[i])) {
			t.writeBucket(i, cand[i], e)
			copies++
			t.setCounter(i, cand[i], uint64(copies))
			owned[i] = true
		}
	}

	// Principles 2+3: overwrite redundant copies in decreasing counter
	// order while the victim keeps a two-copy lead. Counters are re-read
	// each round because an earlier overwrite may have decremented a
	// later candidate (two candidates can hold copies of the same item).
	for {
		best, bestV := -1, uint64(0)
		for i := 0; i < d; i++ {
			if owned[i] {
				continue
			}
			if v := t.counterAt(i, cand[i]); !t.isFree(v) && v > bestV {
				best, bestV = i, v
			}
		}
		if best < 0 || bestV < uint64(copies)+2 {
			break
		}
		victimKey := t.readBucket(best, cand[best])
		t.victimLostCopy(victimKey, best, bestV)
		t.writeBucket(best, cand[best], e)
		copies++
		t.setCounter(best, cand[best], uint64(copies))
		owned[best] = true
	}

	if copies == 0 {
		return 0
	}
	// Raise all taken buckets to the final copy count.
	for i := 0; i < d; i++ {
		if owned[i] && copies > 1 {
			t.setCounter(i, cand[i], uint64(copies))
		}
	}
	t.copiesTotal += copies
	t.redundantWrites += int64(copies - 1)
	return copies
}

// victimLostCopy updates the bookkeeping when the victim's copy in subtable
// lostTable is about to be overwritten: the victim's surviving copies have
// their counters decremented from v to v-1.
//
// The survivors are found among the victim's other candidates whose counter
// equals v. If exactly v-1 such candidates exist they are provably the
// copies and the update is on-chip only; otherwise off-chip reads verify
// keys until the copies are identified (the cost the paper's counters cannot
// avoid; see DESIGN.md §6).
//
//mcvet:hotpath
func (t *Table) victimLostCopy(victimKey uint64, lostTable int, v uint64) {
	var vcand [hashutil.MaxD]int
	t.family.Indexes(victimKey, vcand[:])

	var w [hashutil.MaxD]int
	nw := 0
	for j := 0; j < t.cfg.D; j++ {
		if j == lostTable {
			continue
		}
		if t.counterAt(j, vcand[j]) == v {
			w[nw] = j
			nw++
		}
	}
	needed := int(v) - 1
	if nw < needed {
		panic(fmt.Sprintf("core: victim %#x with counter %d has only %d matching candidates", victimKey, v, nw))
	}
	found := 0
	for k := 0; k < nw && found < needed; k++ {
		j := w[k]
		if needed-found == nw-k {
			// Every remaining candidate must be a copy; no reads
			// needed.
			t.setCounter(j, vcand[j], v-1)
			found++
			continue
		}
		if t.readBucket(j, vcand[j]) == victimKey {
			t.setCounter(j, vcand[j], v-1)
			found++
		}
	}
	if found != needed {
		panic(fmt.Sprintf("core: victim %#x lost copies: found %d of %d", victimKey, found, needed))
	}
	t.copiesTotal--
}

// resolveCollision runs the counter-guided random walk: evict a random sole
// copy, re-place the evicted item by the insertion principles, and repeat
// until a placement succeeds or MaxLoop is exceeded, in which case the item
// in hand goes to the stash.
//
//mcvet:hotpath
func (t *Table) resolveCollision(e kv.Entry, cand []int) kv.Outcome {
	cur := e
	var curCand [hashutil.MaxD]int
	copy(curCand[:], cand)
	prevTable := -1
	kicks := 0
	for {
		if kicks >= t.cfg.MaxLoop {
			t.stats.Kicks += int64(kicks)
			return t.overflowInsert(cur, curCand[:t.cfg.D], kicks)
		}
		// Pick a candidate to evict per the configured policy,
		// avoiding an immediate bounce back to the bucket cur was
		// just evicted from.
		r := t.pickVictim(curCand[:t.cfg.D], prevTable)
		victim := t.readEntry(r, curCand[r])
		t.writeBucket(r, curCand[r], cur)
		// The bucket's counter is already 1 (sole copy out, sole copy
		// in), so no counter update is needed.
		kicks++
		cur = victim
		prevTable = r
		t.family.Indexes(cur.Key, curCand[:])
		if copies := t.place(cur, curCand[:t.cfg.D]); copies > 0 {
			// The original item is now in the table and every
			// displaced item found a home: net one new item. The
			// kick writes themselves never change the physical
			// copy count (each replaces a sole copy with a sole
			// copy), so only size moves here.
			t.size++
			t.stats.Kicks += int64(kicks)
			return kv.Outcome{Status: kv.Placed, Kicks: kicks}
		}
	}
}
