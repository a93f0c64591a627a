package wire

import (
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"mccuckoo"
	"mccuckoo/internal/hashutil"
)

// checkAgainst compares every tracked pair of x with model, visiting
// through each so a key reachable by get but lost to iteration (or the
// reverse) fails too.
func (x *seqIndex) checkAgainst(t *testing.T, model map[uint64]uint64) {
	t.Helper()
	if x.n != len(model) {
		t.Fatalf("len %d, model %d", x.n, len(model))
	}
	seen := 0
	x.each(func(k, meta uint64) {
		if want, ok := model[k]; !ok || want != meta {
			t.Fatalf("each: key %#x meta %d, model %d (present %v)", k, meta, want, ok)
		}
		seen++
	})
	if seen != len(model) {
		t.Fatalf("each visited %d keys, model has %d", seen, len(model))
	}
	for k, want := range model {
		if got, ok := x.get(k); !ok || got != want {
			t.Fatalf("get %#x = %d %v, model %d", k, got, ok, want)
		}
	}
}

// TestSeqIndexMatchesMap runs seeded random sequences of set and get
// against a map[uint64]uint64 model. The key pool widens as the sequence
// runs, and the pool holds keys 0 and 2^64-1. A segment rebuilds with a
// sixteenth more buckets (at least one more), rounded up to the
// allocator's capacity, once it passes 15/16 full or a walk fails; every
// segment starts at one bucket and must end past 128, which takes more
// than a dozen rebuilds, since no allocator step below 8 KiB is more than
// ×1.5.
func TestSeqIndexMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rng := &digestRand{state: seed}
		x := newSeqIndex(rng.next(), 0)
		model := make(map[uint64]uint64)
		pool := make([]uint64, 30000)
		for i := range pool {
			pool[i] = rng.next()
		}
		pool[0], pool[1] = 0, ^uint64(0)
		const ops = 100000
		for op := 0; op < ops; op++ {
			k := pool[rng.next()%(2+uint64(op)*uint64(len(pool))/ops)]
			if rng.next()%100 < 55 {
				meta := 2 + rng.next()%(1<<40)
				p, old := x.probe(k)
				if want := model[k]; old != want {
					t.Fatalf("seed %d op %d: probe %#x meta %d, model %d", seed, op, k, old, want)
				}
				x.update(p, k, meta)
				model[k] = meta
			} else {
				got, ok := x.get(k)
				if want, present := model[k]; ok != present || got != want {
					t.Fatalf("seed %d op %d: get %#x = %d %v, model %d %v", seed, op, k, got, ok, want, present)
				}
			}
			if x.n != len(model) {
				t.Fatalf("seed %d op %d: len %d, model %d", seed, op, x.n, len(model))
			}
		}
		x.checkAgainst(t, model)
		for i := range x.segs {
			if n := len(x.segs[i].buckets); n <= 128 {
				t.Fatalf("seed %d: segment %d ended at %d buckets; the sequence must grow it past 128", seed, i, n)
			}
		}
	}
}

// TestSeqIndexReadsTwoBuckets checks, for every key of a filled index and
// for as many absent keys, that the key is in one of its two buckets and
// that probe's slot lies in one of them: probe and get read no other
// bucket. A tracked key sits in its second bucket only while its first is
// full, which is what lets probe stop at the first empty slot.
func TestSeqIndexReadsTwoBuckets(t *testing.T) {
	x := newSeqIndex(5, 0)
	state := uint64(9)
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&state)
		x.set(keys[i], 2+uint64(i))
	}
	in := func(s *seqSegment, b int, sl *seqSlot) bool {
		for j := range s.buckets[b] {
			if sl == &s.buckets[b][j] {
				return true
			}
		}
		return false
	}
	for i, k := range keys {
		s, b1, b2 := x.home(k)
		p, meta := x.probe(k)
		if meta != 2+uint64(i) || p.seg != s || !in(s, b1, p.sl) && !in(s, b2, p.sl) {
			t.Fatalf("key %#x: meta %d, want %d; its slot is in neither of buckets %d and %d", k, meta, 2+uint64(i), b1, b2)
		}
		if in(s, b2, p.sl) && b2 != b1 && s.buckets[b1].find(k) != seqWays {
			t.Fatalf("key %#x sits in its second bucket while its first has room", k)
		}
		absent := hashutil.SplitMix64(&state)
		s, b1, b2 = x.home(absent)
		if p, meta := x.probe(absent); meta != 0 || p.sl != nil && !in(s, b1, p.sl) && !in(s, b2, p.sl) {
			t.Fatalf("absent key %#x: meta %d, or a free slot outside its buckets", absent, meta)
		}
	}
}

// indexBytes returns the bytes the index's buckets occupy: cap(buckets)
// buckets of 64 bytes per segment. allocBuckets keeps the whole capacity
// slices.Grow rounds an allocation up to, so this is exactly the size class
// the allocator handed out, and unlike the process heap it counts no
// bytes that other goroutines hold.
func indexBytes(x *seqIndex) int {
	b := 0
	for i := range x.segs {
		b += cap(x.segs[i].buckets) * int(unsafe.Sizeof(seqBucket{}))
	}
	return b
}

// TestSeqIndexBytesAndRehashBounds pins the two size claims of DESIGN §11
// under a fixed seed. The index holds at most 19 allocated bytes per
// tracked key at 4,096 to 1<<20 keys, grown one key at a time or
// pre-sized, allocator rounding included. And from 4,096 keys on no insert
// rehashes more than an eighth of the keys: a rebuild rehashes one segment,
// about a twelfth.
func TestSeqIndexBytesAndRehashBounds(t *testing.T) {
	const maxBytesPerKey = 19
	checkpoints := []int{4096, 32768, 65536, 100000, 1 << 20}
	perKey := func(x *seqIndex) float64 { return float64(indexBytes(x)) / float64(x.n) }
	var grown []float64
	x := newSeqIndex(7, 0)
	state := uint64(42)
	for _, n := range checkpoints {
		for x.n < n {
			k := hashutil.SplitMix64(&state) // distinct: splitmix64 is a bijection of its counter
			p, _ := x.probe(k)
			before := len(p.seg.buckets)
			x.update(p, k, 2)
			if len(p.seg.buckets) != before && x.n >= 4096 && p.seg.n*8 > x.n {
				t.Fatalf("at %d keys an insert rehashed %d keys, more than 1/8", x.n, p.seg.n)
			}
		}
		grown = append(grown, perKey(&x))
	}
	for i, n := range checkpoints {
		x := newSeqIndex(7, n)
		for x.n < n {
			x.set(hashutil.SplitMix64(&state), 2)
		}
		pre := perKey(&x)
		t.Logf("%d keys: %.2f bytes per key grown, %.2f pre-sized", n, grown[i], pre)
		if grown[i] > maxBytesPerKey || pre > maxBytesPerKey {
			t.Errorf("%d keys: %.2f bytes per key grown, %.2f pre-sized, want at most %d", n, grown[i], pre, maxBytesPerKey)
		}
	}
}

// TestBatchRebuildsEachSegmentOnce pushes eight batches of 4,096 new keys,
// as cluster-rw's preload does, into an empty Replicated whose index seed is
// fixed; every other entry is a DEL, which tracks a tombstone. A push to
// untracked keys allocates nothing but the segments it rebuilds, so with
// the GC off its allocations count the rebuilds, and the segments whose
// array changed are the ones rebuilt: each must be rebuilt once. A walk
// that fails rebuilds its segment once more; this seed meets none. Other
// goroutines' allocations only add, so each push counts the fewest of three
// runs. A rebuild allocates what one allocBuckets call does: once, or twice
// under -race, whose instrumentation keeps slices.Grow's temporary. A
// rebuild places every record of its segment again: over the fill that
// stays at or under 3.5 per key, the cost of rebuilding every segment once
// in every push after the first, and the index ends at or under 19 bytes
// per key.
func TestBatchRebuildsEachSegmentOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const pushes, batch, runs = 8, 4096, 3
	perRebuild := uint64(testing.AllocsPerRun(10, func() { allocBuckets(100) }))
	fewest := make([]uint64, pushes)
	rebuilt := make([]uint64, pushes)
	var replaced int
	var x *seqIndex
	for run := range runs {
		tab, err := mccuckoo.NewSharded(1<<17, 8, mccuckoo.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		r := NewReplicated(tab, ReplicaConfig{})
		r.mu.Lock()
		r.seqs = newSeqIndex(12345, 0)
		r.mu.Unlock()
		x = &r.seqs
		ents := make([]Entry, batch)
		statuses := make([]byte, batch)
		var ms runtime.MemStats
		replaced = 0
		for p := range pushes {
			for i := range ents {
				k := uint64(p*batch + i + 1)
				ents[i] = Entry{Seq: k, Op: OpPut, Key: k * 0x9e3779b97f4a7c15, Value: k}
				if i%2 == 1 {
					ents[i].Op = OpDel
				}
			}
			before := x.segs
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			r.ApplyPush(ents, statuses)
			runtime.ReadMemStats(&ms)
			if n := ms.Mallocs - mallocs; run == 0 || n < fewest[p] {
				fewest[p] = n
			}
			rebuilt[p] = 0
			for si, s := range before {
				if &x.segs[si].buckets[0] != &s.buckets[0] {
					rebuilt[p]++
					replaced += s.n
				}
			}
		}
	}
	perKey := float64(replaced) / float64(x.n)
	t.Logf("allocations per push %v, segments rebuilt %v; %.2f records placed again per key", fewest, rebuilt, perKey)
	for p := range pushes {
		if fewest[p] != rebuilt[p]*perRebuild {
			t.Errorf("push %d: %d allocations for %d rebuilt segments, %d each; a segment was rebuilt more than once", p+1, fewest[p], rebuilt[p], perRebuild)
		}
	}
	if perKey > 3.5 {
		t.Errorf("rebuilds placed %.2f records per key again, want at most 3.5", perKey)
	}
	if b := float64(indexBytes(x)) / float64(x.n); x.n != pushes*batch || b > 19 {
		t.Errorf("index holds %d keys in %.2f bytes per key, want %d in at most 19", x.n, b, pushes*batch)
	}
}

// TestBatchOfTrackedKeysRebuildsNothing: a batch counts toward a
// reservation only the valid entries whose key the index does not track.
// Updates, stale entries and invalid entries for new keys, each in a batch
// as large as the index, leave every segment's array where it was.
func TestBatchOfTrackedKeysRebuildsNothing(t *testing.T) {
	r := newReplicated(t, 1<<14)
	const n = 4096
	keys := make([]uint64, n)
	ents := make([]Entry, n)
	for i := range ents {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
		ents[i] = Entry{Seq: uint64(i + 1), Op: OpPut, Key: keys[i], Value: uint64(i)}
	}
	r.ApplyPush(ents, nil)
	before := r.seqs.segs
	check := func(what string) {
		t.Helper()
		for si, s := range before {
			if &r.seqs.segs[si].buckets[0] != &s.buckets[0] {
				t.Fatalf("%s rebuilt segment %d", what, si)
			}
		}
		if r.seqs.n != n {
			t.Fatalf("%s: index tracks %d keys, want %d", what, r.seqs.n, n)
		}
	}
	for i := range ents {
		ents[i].Seq += n
		if i%2 == 1 {
			ents[i].Op = OpDel
		}
	}
	r.ApplyPush(ents, nil)
	check("a push of updates")
	r.ApplyStream(ents)
	check("a stream of stale entries")
	r.InsertBatchInto(keys, keys, nil)
	check("a local insert batch of tracked keys")
	r.DeleteBatchInto(keys, nil)
	check("a local delete batch of tracked keys")
	for i := range ents {
		ents[i] = Entry{Seq: uint64(i%2) * seqLimit, Op: OpPut, Key: uint64(i) + 1}
	}
	r.ApplyPush(ents, nil)
	check("a push of invalid entries for new keys")
	if st := r.ReplicaStats(); st.EntriesStale != 2*n {
		t.Fatalf("%d entries stale, want %d", st.EntriesStale, 2*n)
	}
}

// FuzzSeqIndex decodes its input into set, get and probe-then-update
// operations on an index that starts at one bucket per segment, so random
// walks and rebuilds run within a few hundred keys. Each operation is two
// input bytes, v little-endian: v&3 picks the operation (3 is a set too)
// and v>>2&1023 a key from a 1,024-key pool drawn from the seed, except
// that v>>12 == 15 takes the next eight input bytes as the key. Every
// operation's result, and the index's length, is checked against a map
// model as it runs, and every tracked pair through each and get at the
// end. The seed corpus alone drives walks and rebuilds.
func FuzzSeqIndex(f *testing.F) {
	long := make([]byte, 8192)
	state := uint64(5)
	for i := range long {
		long[i] = byte(hashutil.SplitMix64(&state))
	}
	f.Add(uint64(1), long)
	f.Add(uint64(2), []byte{0, 0, 4, 0, 1, 0, 5, 0, 2, 0, 6, 0})
	f.Add(uint64(3), []byte{0, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xf0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		pool := make([]uint64, 1024)
		state := seed
		for i := range pool {
			pool[i] = hashutil.SplitMix64(&state)
		}
		x := newSeqIndex(seed, 0)
		model := make(map[uint64]uint64)
		meta := uint64(0)
		for len(ops) >= 2 {
			v := binary.LittleEndian.Uint16(ops)
			ops = ops[2:]
			k := pool[v>>2&1023]
			if v>>12 == 15 && len(ops) >= 8 {
				k, ops = binary.LittleEndian.Uint64(ops), ops[8:]
			}
			meta += 2
			switch v & 3 {
			case 0, 3:
				x.set(k, meta)
				model[k] = meta
			case 1:
				got, ok := x.get(k)
				if want, present := model[k]; got != want || ok != present {
					t.Fatalf("get %#x = %d %v, model %d %v", k, got, ok, want, present)
				}
			case 2:
				p, old := x.probe(k)
				if old != model[k] {
					t.Fatalf("probe %#x meta %d, model %d", k, old, model[k])
				}
				x.update(p, k, meta)
				model[k] = meta
			}
			if x.n != len(model) {
				t.Fatalf("len %d, model %d", x.n, len(model))
			}
		}
		x.checkAgainst(t, model)
	})
}
