package wire

import (
	"math/bits"
	"slices"

	"mccuckoo/internal/hashutil"
)

// seqIndex is a Replicated's per-key bookkeeping: key -> meta word
// (seq<<1 | tombstone bit). Each slot is a 16-byte {key, meta} pair, and
// meta 0 marks an empty slot: every tracked meta is at least 2, because
// sequence numbers start at 1.
//
// Four slots make a 64-byte bucket, and the buckets sit in seqSegments
// segments. Mix64(key ^ seed), with the seed drawn per replica, picks a
// key's segment and two buckets there, distinct once it has two, so a
// lookup reads at most two. An insert takes the first empty slot of the
// first bucket, else of the second; when both are full, a bounded random
// walk moves records to their other bucket. No key is removed and a walk
// refills every slot it empties, so a key sits in its second bucket only
// while its first is full, and a lookup stops at the first empty slot it
// meets. A segment rebuilds with a sixteenth more buckets, rounded up to
// what the allocator hands out, once it passes 15/16 full or a walk
// fails: a rebuild rehashes about a twelfth of the keys. A batch that
// brings many new keys reserves their room first, so it rebuilds each
// segment at most once, except to recover from a failed walk.
//
// The index has no lock of its own: every access happens under the owning
// Replicated's mutex.
type seqIndex struct {
	seed uint64
	rng  uint64 // the walks' random state, started from seed
	n    int    // tracked keys
	segs [seqSegments]seqSegment
}

type seqSegment struct {
	buckets []seqBucket
	n       int
}

type seqBucket [seqWays]seqSlot

type seqSlot struct{ key, meta uint64 }

// seqPos is a slot located by probe: the one holding the key, or the empty
// slot an insert of the key takes, or nil when both its buckets are full.
type seqPos struct {
	seg *seqSegment
	sl  *seqSlot
}

const (
	seqWays = 4
	// seqSegments is chosen by measurement (DESIGN.md §11): cluster-rw's
	// 32,768 keys per node fill 48 KiB segments, a fine step of the
	// allocator's sizes.
	seqSegments  = 12
	seqWalkSteps = 128 // evictions before a walk gives up
)

// newSeqIndex returns an index sized for hint keys: each segment gets the
// allocator's first capacity that holds its share at 15/16 occupancy.
func newSeqIndex(seed uint64, hint int) seqIndex {
	x := seqIndex{seed: seed, rng: seed}
	for i := range x.segs {
		x.segs[i].buckets = allocBuckets(bucketsFor((hint + seqSegments - 1) / seqSegments))
	}
	return x
}

// bucketsFor returns the fewest buckets that hold keys at 15/16 occupancy.
func bucketsFor(keys int) int { return (keys*16 + seqWays*15 - 1) / (seqWays * 15) }

// allocBuckets returns at least n buckets, and at least one: all that the
// allocation the allocator rounds them up to holds.
func allocBuckets(n int) []seqBucket {
	b := slices.Grow([]seqBucket(nil), max(n, 1))
	return b[:cap(b)]
}

// hash returns the index of key's segment and the bits that pick its two
// buckets there.
func (x *seqIndex) hash(key uint64) (si, h uint64) {
	return bits.Mul64(hashutil.Mix64(key^x.seed), seqSegments)
}

// home returns key's segment and its two buckets there.
func (x *seqIndex) home(key uint64) (s *seqSegment, b1, b2 int) {
	si, h := x.hash(key)
	s = &x.segs[si]
	nb := uint64(len(s.buckets))
	hi, h := bits.Mul64(h, nb)
	off, _ := bits.Mul64(h, nb-1)
	if off += hi + 1; off >= nb {
		off -= nb
	}
	return s, int(hi), int(off)
}

// find returns the index of bk's slot holding key, else of bk's first
// empty slot, else seqWays.
func (bk *seqBucket) find(key uint64) int {
	for i := range bk {
		if bk[i].meta == 0 || bk[i].key == key {
			return i
		}
	}
	return seqWays
}

// probe locates key's slot: the one holding it, else the first empty one
// of its first bucket, else of its second. meta is 0 when the key is
// untracked.
//
//mcvet:hotpath
func (x *seqIndex) probe(key uint64) (p seqPos, meta uint64) {
	s, b, b2 := x.home(key)
	i := s.buckets[b].find(key)
	if i == seqWays {
		b = b2
		if i = s.buckets[b].find(key); i == seqWays {
			return seqPos{seg: s}, 0
		}
	}
	return seqPos{s, &s.buckets[b][i]}, s.buckets[b][i].meta
}

// get returns key's meta word.
//
//mcvet:hotpath
func (x *seqIndex) get(key uint64) (meta uint64, ok bool) {
	_, meta = x.probe(key)
	return meta, meta != 0
}

// update sets key's meta word (at least 2) at the slot probe returned for
// key. Nothing may change the index between the two calls.
//
//mcvet:hotpath
func (x *seqIndex) update(p seqPos, key, meta uint64) {
	if p.sl != nil && p.sl.meta != 0 {
		p.sl.meta = meta
		return
	}
	s := p.seg
	s.n++
	x.n++
	sl := seqSlot{key, meta}
	if p.sl != nil {
		*p.sl, sl = sl, seqSlot{}
	} else {
		sl = x.place(sl) // the record left without a slot, if any
	}
	if sl.meta != 0 || bucketsFor(s.n) > len(s.buckets) {
		x.grow(s, s.step(), sl)
	}
}

// step is the bucket count one insert grows s to: a sixteenth more, and at
// least one more.
func (s *seqSegment) step() int { return len(s.buckets) + max(1, len(s.buckets)/16) }

// reserve makes room, before a batch of n entries applies, for the keys
// among them that the index does not track; key(i) returns entry i's key
// and whether the entry is a valid write, and a repeated key counts each
// time. Each segment that cannot hold its keys plus its share of those at
// 15/16 occupancy rebuilds once, straight to a capacity that can, and by no
// less than step. The count runs only when the batch holds at least a
// sixteenth as many entries as the index holds keys: a smaller batch brings
// a segment, on average, less than one step's room of new keys, which it
// grows by one insert at a time.
func (x *seqIndex) reserve(n int, key func(i int) (uint64, bool)) {
	if n*16 < x.n {
		return
	}
	var add [seqSegments]int
	for i := range n {
		if k, ok := key(i); ok {
			if _, meta := x.probe(k); meta == 0 {
				si, _ := x.hash(k)
				add[si]++
			}
		}
	}
	for si, a := range add {
		s := &x.segs[si]
		if need := bucketsFor(s.n + a); need > len(s.buckets) {
			x.grow(s, max(need, s.step()), seqSlot{})
		}
	}
}

// set is probe then update.
func (x *seqIndex) set(key, meta uint64) {
	p, _ := x.probe(key)
	x.update(p, key, meta)
}

// place puts sl, whose key the index does not hold, into the slot probe
// finds for it, else by a random walk. The walk puts the record in hand
// into a random slot of a full bucket and takes up the record it evicts,
// whose other bucket it tries next. place returns the record in hand if
// the walk gives up after seqWalkSteps evictions, else a zero slot.
func (x *seqIndex) place(sl seqSlot) seqSlot {
	if p, _ := x.probe(sl.key); p.sl != nil {
		*p.sl = sl
		return seqSlot{}
	}
	s, b, b2 := x.home(sl.key)
	if hashutil.SplitMix64(&x.rng)&1 == 1 {
		b = b2
	}
	for range seqWalkSteps {
		j := hashutil.SplitMix64(&x.rng) % seqWays
		sl, s.buckets[b][j] = s.buckets[b][j], sl
		_, c1, c2 := x.home(sl.key)
		b = c1 + c2 - b
		if i := s.buckets[b].find(sl.key); i < seqWays {
			s.buckets[b][i] = sl
			return seqSlot{}
		}
	}
	return sl
}

// grow rebuilds s with at least n buckets, and one more each time a walk
// fails, holding its records plus extra unless extra is a zero slot. Only
// s's records move.
func (x *seqIndex) grow(s *seqSegment, n int, extra seqSlot) {
	old := s.buckets
rebuild:
	for {
		s.buckets = allocBuckets(n)
		n = len(s.buckets) + 1
		if extra.meta != 0 && x.place(extra).meta != 0 {
			continue
		}
		for _, bk := range old {
			for _, sl := range bk {
				if sl.meta != 0 && x.place(sl).meta != 0 {
					continue rebuild
				}
			}
		}
		return
	}
}

// each calls fn for every tracked key, in an order that depends on the
// seed. fn must not change the index.
func (x *seqIndex) each(fn func(key, meta uint64)) {
	for si := range x.segs {
		for _, bk := range x.segs[si].buckets {
			for _, sl := range bk {
				if sl.meta != 0 {
					fn(sl.key, sl.meta)
				}
			}
		}
	}
}
