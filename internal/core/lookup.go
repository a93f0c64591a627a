package core

import (
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/memmodel"
)

// scanState carries what a counter-guided candidate scan learned, which the
// stash pre-screen needs afterwards. Stash flags are not captured here: the
// model reads a bucket's flag for free with the bucket, so the pre-screen
// consults the flags of the buckets in readMask lazily (flagsAllSet) — the
// common hit path never touches the flag bitset at all.
type scanState struct {
	cnt       [hashutil.MaxD]uint64 // counter snapshot
	readMask  uint8                 // candidates read off-chip this scan
	value     uint64                // value of the found item
	found     int                   // subtable of the first found copy, -1 if none
	foundCnt  uint64                // counter value of the found copy
	earlyMiss bool                  // rule 1 fired: some counter was zero
}

// flagsAllSet reports whether every bucket in mask has its stash flag set.
// The flags were fetched for free with the bucket reads that built mask
// (§III.E), so consulting them afterwards charges nothing.
//
//mcvet:hotpath
func (t *Table) flagsAllSet(cand []int, mask uint8) bool {
	for i := 0; mask != 0; i, mask = i+1, mask>>1 {
		if mask&1 != 0 && !t.flags.Get(t.bucketIndex(i, cand[i])) {
			return false
		}
	}
	return true
}

// scan applies the lookup principles (§III.B.2) to key's candidates:
//
//  1. any zero counter (when trustworthy) means a definite miss,
//  2. partitions of candidates sharing counter value V with fewer than V
//     members cannot hold the item and are skipped entirely,
//  3. a surviving partition of size S needs at most S-V+1 bucket reads.
//
// Partitions are visited in decreasing counter value: items with more copies
// are found with fewer reads. Every access is charged to m.
//
// The walk is batch-probed: all d candidate cells are touched up front, so
// their (cache-missing) loads issue independently instead of serializing
// behind the counter examination and each key compare. m is then charged
// with what the sequential walk would have read — reads stop at the matching
// bucket, skipped partitions charge nothing — keeping access counts and
// readMask identical to the paper's algorithm; the extra touches are
// speculation the model's wide off-chip word would fetch anyway.
//
//mcvet:hotpath
func (t *Table) scan(key uint64, cand []int, st *scanState, m *memmodel.Meter) {
	st.readMask = 0
	st.found = -1
	st.earlyMiss = false
	d := t.cfg.D
	n := t.cfg.BucketsPerTable
	cells := t.cells
	var idx [hashutil.MaxD]int
	var probe [hashutil.MaxD]uint64
	for i := 0; i < d; i++ {
		j := i*n + cand[i]
		idx[i] = j
		probe[i] = cells[j].Key
	}
	// One batched on-chip charge for the d counter reads (the meter hook
	// expands it into d accesses, so simulated streams are unchanged).
	m.ReadOn(int64(d))
	anyZero := false
	for i := 0; i < d; i++ {
		c := t.counters.Get(idx[i])
		st.cnt[i] = c
		anyZero = anyZero || c == 0
	}
	if anyZero && t.rule1Active() {
		st.earlyMiss = true
		return
	}
	for v := uint64(d); v >= 1; v-- {
		var group [hashutil.MaxD]int
		s := 0
		for i := 0; i < d; i++ {
			if st.cnt[i] == v {
				group[s] = i
				s++
			}
		}
		if s == 0 || s < int(v) {
			continue // principle 2: too few members to hold V copies
		}
		limit := s - int(v) + 1 // principle 3 (<= s because v >= 1)
		match := -1
		for k := 0; k < limit; k++ {
			if probe[group[k]] == key {
				match = k
				break
			}
		}
		reads := limit
		if match >= 0 {
			reads = match + 1
		}
		m.ReadOff(int64(reads))
		for k := 0; k < reads; k++ {
			st.readMask |= 1 << uint(group[k])
		}
		if match >= 0 {
			i := group[match]
			st.value = cells[idx[i]].Value
			st.found = i
			st.foundCnt = v
			return
		}
	}
}

// scanAll is the traditional lookup used when the counter pre-screen is
// disabled (§IV.F ablation): read candidates in order until found, charging
// each bucket read to m.
//
//mcvet:hotpath
func (t *Table) scanAll(key uint64, cand []int, st *scanState, m *memmodel.Meter) {
	st.readMask = 0
	st.found = -1
	st.earlyMiss = false
	for i := 0; i < t.cfg.D; i++ {
		m.ReadOff(1)
		idx := t.bucketIndex(i, cand[i])
		st.readMask |= 1 << uint(i)
		// Liveness comes from a valid bit that a counter-less
		// implementation would keep inside the bucket record, so it is
		// read with the bucket at no extra charge.
		if t.cells[idx].Key == key && !t.isFree(t.counters.Get(idx)) {
			st.value = t.cells[idx].Value
			st.found = i
			return
		}
	}
}

// shouldProbeStash decides whether a failed main-table scan needs to consult
// the stash (§III.E–F):
//
//   - before any deletion, the counters are authoritative: a stashed item saw
//     all candidates at counter 1 when it overflowed and counters never
//     increase, so anything else skips the stash; the flags (read for free
//     with the buckets) must all be 1 as well;
//   - after deletions, only the flags of the buckets actually read are
//     consulted; skipped buckets are neglected, trading a higher false
//     positive rate for zero false negatives.
//
//mcvet:hotpath
func (t *Table) shouldProbeStash(st *scanState, cand []int) bool {
	if t.overflow == nil || t.overflow.Len() == 0 {
		return false
	}
	if st.earlyMiss {
		return false // zero counter with rule 1 active: never inserted
	}
	if !t.cfg.DisablePrescreen && !t.deletedAny {
		for i := 0; i < t.cfg.D; i++ {
			if st.cnt[i] != 1 {
				return false
			}
		}
		// All counters are 1, so every candidate was read and every
		// flag observed.
		return t.flagsAllSet(cand, st.readMask)
	}
	// Deletions happened (or counters unused): rely on observed flags.
	return t.flagsAllSet(cand, st.readMask)
}

// probe is the table's one lookup: the counter-guided scan (the in-order
// scan with DisablePrescreen), then the stash when the pre-screen cannot
// rule it out. It charges every access to m, in program order, reports
// whether it consulted the stash, and writes nothing else, so Lookup hands
// it the table's meter and LookupReadOnlyTraced one of its own.
//
//mcvet:hotpath
func (t *Table) probe(key uint64, m *memmodel.Meter) (value uint64, ok, stashProbed bool) {
	var cand [hashutil.MaxD]int
	t.family.Indexes(key, cand[:])

	var st scanState
	if t.cfg.DisablePrescreen {
		t.scanAll(key, cand[:t.cfg.D], &st, m)
	} else {
		t.scan(key, cand[:t.cfg.D], &st, m)
	}
	if st.found >= 0 {
		return st.value, true, false
	}
	if !t.shouldProbeStash(&st, cand[:t.cfg.D]) {
		return 0, false, false
	}
	value, ok, offReads := t.overflow.Find(key)
	m.ReadOff(offReads)
	return value, ok, true
}

// Lookup returns the value stored for key, checking the stash only when the
// pre-screen cannot rule it out.
//
//mcvet:hotpath
func (t *Table) Lookup(key uint64) (uint64, bool) {
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

// LookupReadOnlyTraced is Lookup for readers that share the table under a
// read lock (internal/shard): it runs the same probe against a meter on its
// own stack, so it touches neither the table's meter nor its stats. It
// reports the off-chip reads Lookup would charge and whether the probe
// consulted the stash, for the caller to count.
//
//mcvet:hotpath
func (t *Table) LookupReadOnlyTraced(key uint64) (value uint64, ok, stashProbed bool, offReads int64) {
	var m memmodel.Meter
	value, ok, stashProbed = t.probe(key, &m)
	return value, ok, stashProbed, m.OffChipReads
}

// locateCopies finds every subtable holding a copy of key. It fills st with
// the scan state (for the stash pre-screen) and returns the tables of all
// copies; ok is false when key is not in the main table. The returned slice
// aliases buf, the caller's stack-resident backing array — this keeps the
// per-op hot paths (insert-update, delete) allocation-free.
//
// After the first copy is found with counter value V, the deletion principle
// (§III.B.3) continues reading the unread members of the same partition
// until all V copies are found — this read-to-confirm step is why multi-copy
// deletion costs more reads than single-copy deletion in Fig. 14.
//
//mcvet:hotpath
func (t *Table) locateCopies(key uint64, cand []int, buf *[hashutil.MaxD]int, st *scanState) ([]int, bool) {
	t.scan(key, cand, st, &t.meter)
	if st.found < 0 {
		return nil, false
	}
	v := st.foundCnt
	tables := append(buf[:0], st.found)
	needed := int(v) - 1
	if needed == 0 {
		return tables, true
	}
	// Unread members of the found partition, in table order.
	var rest [hashutil.MaxD]int
	nr := 0
	for i := 0; i < t.cfg.D; i++ {
		if i != st.found && st.cnt[i] == v && st.readMask&(1<<uint(i)) == 0 {
			rest[nr] = i
			nr++
		}
	}
	if nr < needed {
		panic("core: copies of key missing from its partition")
	}
	for k := 0; k < nr && needed > 0; k++ {
		i := rest[k]
		gotKey := t.readBucket(i, cand[i])
		st.readMask |= 1 << uint(i)
		if gotKey == key {
			tables = append(tables, i)
			needed--
		}
	}
	if len(tables) != int(v) {
		panic("core: failed to locate all copies of key")
	}
	return tables, true
}
