package wire

import (
	"testing"

	"mccuckoo/internal/hashutil"
)

// slotCount returns the slots x holds over every segment, 16 bytes each.
func (x *seqIndex) slotCount() int {
	n := 0
	for i := range x.segs {
		n += len(x.segs[i].slots)
	}
	return n
}

// checkAgainst compares every tracked pair of x with model, visiting
// through each so a key reachable by get but lost to iteration (or the
// reverse) fails too.
func (x *seqIndex) checkAgainst(t *testing.T, model map[uint64]uint64) {
	t.Helper()
	if x.len() != len(model) {
		t.Fatalf("len %d, model %d", x.len(), len(model))
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
// against a map[uint64]uint64 model. The key pool widens as
// the sequence runs, so every segment grows from its minimum length
// through each ×1.25 step past 512 slots, about twenty growths, and the
// pool holds keys 0 and 2^64-1.
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
			if x.len() != len(model) {
				t.Fatalf("seed %d op %d: len %d, model %d", seed, op, x.len(), len(model))
			}
		}
		x.checkAgainst(t, model)
		for i := range x.segs {
			if n := len(x.segs[i].slots); n <= 512 {
				t.Fatalf("seed %d: segment %d ended at %d slots; the sequence must grow it past 512", seed, i, n)
			}
		}
	}
}

// TestSeqIndexBytesAndRehashBounds pins the two size claims of DESIGN §11
// under a fixed seed: at most 23 bytes of slots per tracked key (the
// worst case is 16 / (0.875/1.25) ≈ 22.9), and, once the index holds
// 4,096 keys, no insert rehashes more than an eighth of them (a growth
// rehashes one segment, about a sixteenth).
func TestSeqIndexBytesAndRehashBounds(t *testing.T) {
	const maxBytesPerKey = 23
	checkpoints := map[int]bool{4096: true, 32768: true, 65536: true, 100000: true, 1 << 20: true}
	x := newSeqIndex(7, 0)
	state := uint64(42)
	for x.len() < 1<<20 {
		k := hashutil.SplitMix64(&state) // distinct: splitmix64 is a bijection of its counter
		p, _ := x.probe(k)
		before := len(p.seg.slots)
		x.update(p, k, 2)
		if len(p.seg.slots) != before && x.len() >= 4096 && p.seg.n*8 > x.len() {
			t.Fatalf("at %d keys an insert rehashed %d keys, more than 1/8", x.len(), p.seg.n)
		}
		if checkpoints[x.len()] {
			b := float64(x.slotCount()*16) / float64(x.len())
			t.Logf("%d keys: %.2f bytes per key", x.len(), b)
			if b > maxBytesPerKey {
				t.Errorf("%d keys: %.2f bytes per key, want at most %d", x.len(), b, maxBytesPerKey)
			}
		}
	}
	// An index pre-sized from a known count meets the same bound.
	for n := range checkpoints {
		x := newSeqIndex(7, n)
		for i := 0; i < n; i++ {
			x.set(hashutil.SplitMix64(&state), 2)
		}
		if b := float64(x.slotCount()*16) / float64(n); b > maxBytesPerKey {
			t.Errorf("pre-sized for %d keys: %.2f bytes per key, want at most %d", n, b, maxBytesPerKey)
		}
	}
}
