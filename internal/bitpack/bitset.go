package bitpack

import "fmt"

// Bitset is a fixed-length bit array. McCuckoo uses one as the off-chip
// stash flags: one bit per main-table bucket, set when an item whose
// candidate set includes that bucket overflowed into the stash (§III.E).
type Bitset struct {
	n     int
	words []uint64
}

// NewBitset allocates n bits, all clear.
func NewBitset(n int) (*Bitset, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitpack: negative bitset length %d", n)
	}
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}, nil
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool {
	b.check(i)
	return b.words[i/64]>>(uint(i)%64)&1 == 1
}

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Reset clears all bits. Used when the stash flags are refreshed after a
// series of deletions (§III.F).
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	total := 0
	for _, w := range b.words {
		for w != 0 {
			w &= w - 1
			total++
		}
	}
	return total
}

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(indexError{"bit", i, b.n})
	}
}

// Words exposes the packed backing array for serialization. The returned
// slice aliases the live data; callers must not retain it across mutations.
func (b *Bitset) Words() []uint64 { return b.words }

// LoadWords replaces the backing array with words, which must have exactly
// the length Words() returns for this bitset length.
func (b *Bitset) LoadWords(words []uint64) error {
	if len(words) != len(b.words) {
		return fmt.Errorf("bitpack: word count %d does not match geometry (want %d)", len(words), len(b.words))
	}
	copy(b.words, words)
	return nil
}
