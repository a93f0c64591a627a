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

	// The update's scan leaves the candidates' counters in st.cnt, and
	// nothing writes a counter before placement reads them.
	e := kv.Entry{Key: key, Value: value}
	var copies int
	if t.cfg.AssumeUniqueKeys {
		copies = t.place(e, cand[:t.cfg.D])
	} else {
		var st scanState
		if out, done := t.update(key, value, cand[:t.cfg.D], &st); done {
			return out
		}
		copies = t.placeCounted(e, cand[:t.cfg.D], &st.cnt)
	}
	if copies > 0 {
		t.size++
		return kv.Outcome{Status: kv.Placed}
	}
	return t.resolveCollision(e, cand[:t.cfg.D])
}

// updateExisting checks for an existing copy of key and updates all its
// copies in place. It reports whether the insert was handled.
//
//mcvet:hotpath
func (t *Table) updateExisting(key, value uint64, cand []int) (kv.Outcome, bool) {
	var st scanState
	return t.update(key, value, cand, &st)
}

// update is updateExisting with the caller's scan state, which it leaves
// holding the scan's counter snapshot.
//
//mcvet:hotpath
func (t *Table) update(key, value uint64, cand []int, st *scanState) (kv.Outcome, bool) {
	var locBuf [hashutil.MaxD]int
	locs, _ := t.locateCopies(key, cand, &locBuf, st)
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
	var cnt [hashutil.MaxD]uint64
	for i := range cand {
		cnt[i] = t.counters.Get(t.bucketIndex(i, cand[i]))
	}
	return t.placeCounted(e, cand, &cnt)
}

// placeCounted is place with the candidates' counters already read into
// cnt, as a scan of e's key leaves them. Principle 1 charges each counter
// read where it uses it, so the meter sees the accesses place always made.
//
//mcvet:hotpath
func (t *Table) placeCounted(e kv.Entry, cand []int, cnt *[hashutil.MaxD]uint64) int {
	d := t.cfg.D
	var owned [hashutil.MaxD]bool
	copies := 0

	// Principle 1: occupy every free candidate. Taking one changes no
	// other candidate's counter, so the snapshot stays exact.
	for i := 0; i < d; i++ {
		t.meter.ReadOn(1)
		if t.isFree(cnt[i]) {
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
// in hand goes to the stash or the walk is undone (overflowWalk).
//
//mcvet:hotpath
func (t *Table) resolveCollision(e kv.Entry, cand []int) kv.Outcome {
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
		// Pick a candidate to evict per the configured policy,
		// avoiding an immediate bounce back to the bucket cur was
		// just evicted from.
		r := t.pickVictim(curCand[:t.cfg.D], prevTable)
		victim := t.readEntry(r, curCand[r])
		t.writeBucket(r, curCand[r], cur)
		// The bucket's counter is already 1 (sole copy out, sole copy
		// in), so no counter update is needed.
		walk[kicks] = uint8(r << 4)
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
