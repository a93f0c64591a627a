package wire

import (
	"math/bits"

	"mccuckoo/internal/hashutil"
)

// seqIndex is a Replicated's per-key bookkeeping: key -> meta word
// (seq<<1 | tombstone bit). Each slot is a 16-byte {key, meta} pair, and
// meta 0 marks an empty slot: every tracked meta is at least 2, because
// sequence numbers start at 1.
//
// The slots sit in seqSegments linear-probing segments. A key's segment is
// the top bits of Mix64(key ^ seed), its home slot the rest scaled to the
// segment's length. The seed is drawn per replica, so no fixed key set
// clusters on every node. A segment grows ×1.25 once it passes 7/8 full,
// so the index holds 16/0.875 ≈ 18.3 to 16/0.7 ≈ 22.9 bytes per key, and
// a growth rehashes one segment: about a sixteenth of the keys.
//
// The index has no lock of its own: every access happens under the owning
// Replicated's mutex.
type seqIndex struct {
	seed uint64
	n    int // tracked keys
	segs [seqSegments]seqSegment
}

type seqSegment struct {
	slots []seqSlot
	n     int
}

type seqSlot struct{ key, meta uint64 }

// seqPos is a slot located by probe: the one holding the key, or the
// empty slot an insert of the key takes.
type seqPos struct {
	seg *seqSegment
	i   int
}

const (
	seqSegBits  = 4
	seqSegments = 1 << seqSegBits
	// seqMinSlots is a segment's smallest length; ×1.25 growth must add
	// at least one slot.
	seqMinSlots = 8
)

// newSeqIndex returns an index sized for hint keys at about 4/5 load.
func newSeqIndex(seed uint64, hint int) seqIndex {
	x := seqIndex{seed: seed}
	per := max(seqMinSlots, (hint+seqSegments-1)/seqSegments*5/4)
	for i := range x.segs {
		x.segs[i].slots = make([]seqSlot, per)
	}
	return x
}

func (x *seqIndex) hash(key uint64) uint64 { return hashutil.Mix64(key ^ x.seed) }

// home is the first slot a key with hash h probes in s.
func (s *seqSegment) home(h uint64) int {
	hi, _ := bits.Mul64(h<<seqSegBits, uint64(len(s.slots)))
	return int(hi)
}

// probe locates key's slot. meta is 0 when the key is untracked.
//
//mcvet:hotpath
func (x *seqIndex) probe(key uint64) (p seqPos, meta uint64) {
	h := x.hash(key)
	s := &x.segs[h>>(64-seqSegBits)]
	i := s.home(h)
	for {
		if sl := s.slots[i]; sl.meta == 0 || sl.key == key {
			return seqPos{s, i}, sl.meta
		}
		if i++; i == len(s.slots) {
			i = 0
		}
	}
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
	sl := &p.seg.slots[p.i]
	if sl.meta != 0 {
		sl.meta = meta
		return
	}
	*sl = seqSlot{key, meta}
	p.seg.n++
	x.n++
	if p.seg.n*8 > len(p.seg.slots)*7 {
		x.grow(p.seg)
	}
}

// set is probe then update.
func (x *seqIndex) set(key, meta uint64) {
	p, _ := x.probe(key)
	x.update(p, key, meta)
}

// grow rehashes s into 1.25 times as many slots.
func (x *seqIndex) grow(s *seqSegment) {
	old := s.slots
	s.slots = make([]seqSlot, len(old)+len(old)/4)
	for _, sl := range old {
		if sl.meta == 0 {
			continue
		}
		i := s.home(x.hash(sl.key))
		for s.slots[i].meta != 0 {
			if i++; i == len(s.slots) {
				i = 0
			}
		}
		s.slots[i] = sl
	}
}

// len returns the number of tracked keys.
func (x *seqIndex) len() int { return x.n }

// each calls fn for every tracked key, in an order that depends on the
// seed. fn must not change the index.
func (x *seqIndex) each(fn func(key, meta uint64)) {
	for si := range x.segs {
		for _, sl := range x.segs[si].slots {
			if sl.meta != 0 {
				fn(sl.key, sl.meta)
			}
		}
	}
}
