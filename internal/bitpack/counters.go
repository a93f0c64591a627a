// Package bitpack provides the compact bit-level containers McCuckoo keeps in
// fast "on-chip" memory: a packed array of small counters (2 bits per bucket
// for d = 3, per the paper's Fig. 2) and a plain bitset used for the per-bucket
// stash flags.
package bitpack

import (
	"fmt"
	"math/bits"
)

// Counters is a fixed-length array of unsigned counters, each `width` bits
// wide, packed into uint64 words. It models the on-chip counter array: for a
// McCuckoo table with d hash functions, width = bits needed to store values
// 0..d (2 bits for d = 3), or one more state when tombstone deletion marks are
// enabled.
type Counters struct {
	width uint
	mask  uint64
	n     int
	words []uint64
	// perWord is how many counters fit in one 64-bit word. Counters never
	// straddle a word boundary, which keeps Get/Set branch-free.
	perWord int
	// log2PerWord replaces locate's div/mod with shift/mask when perWord
	// is a power of two (the 2-bit lookup counters: 32 per word). -1 for
	// widths whose perWord is not a power of two (e.g. the 5-bit kick
	// counters, 12 per word).
	log2PerWord int
}

// NewCounters allocates n counters of the given bit width (1..16), all
// zero.
func NewCounters(n int, width uint) (*Counters, error) { return newCounters(n, width, nil) }

// LoadCounters returns n counters of the given bit width over words, the
// packed array Words returned, which must have exactly the length NewCounters
// would allocate. The counters adopt words.
func LoadCounters(n int, width uint, words []uint64) (*Counters, error) {
	if words == nil {
		words = []uint64{}
	}
	return newCounters(n, width, words)
}

// newCounters builds the counters over words, or over zeroed ones when
// words is nil.
func newCounters(n int, width uint, words []uint64) (*Counters, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitpack: negative length %d", n)
	}
	if width < 1 || width > 16 {
		return nil, fmt.Errorf("bitpack: counter width must be in [1,16] bits, got %d", width)
	}
	perWord := 64 / int(width)
	nWords := (n + perWord - 1) / perWord
	if words == nil {
		words = make([]uint64, nWords)
	} else if len(words) != nWords {
		return nil, fmt.Errorf("bitpack: word count %d does not match geometry (want %d)", len(words), nWords)
	}
	log2 := -1
	if perWord&(perWord-1) == 0 {
		log2 = bits.TrailingZeros(uint(perWord))
	}
	return &Counters{
		width:       width,
		mask:        1<<width - 1,
		n:           n,
		words:       words,
		perWord:     perWord,
		log2PerWord: log2,
	}, nil
}

// Len returns the number of counters.
func (c *Counters) Len() int { return c.n }

// Width returns the bit width of each counter.
func (c *Counters) Width() uint { return c.width }

// Max returns the largest value a counter can hold.
func (c *Counters) Max() uint64 { return c.mask }

// Get returns counter i.
func (c *Counters) Get(i int) uint64 {
	word, shift := c.locate(i)
	return (c.words[word] >> shift) & c.mask
}

// Set stores v into counter i. v must fit in the counter width.
func (c *Counters) Set(i int, v uint64) {
	if v > c.mask {
		panic(valueError{v, c.width})
	}
	word, shift := c.locate(i)
	c.words[word] = c.words[word]&^(c.mask<<shift) | v<<shift
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	for i := range c.words {
		c.words[i] = 0
	}
}

// SizeBytes returns the memory footprint of the packed array, i.e. the
// on-chip SRAM the counter array would occupy.
func (c *Counters) SizeBytes() int { return len(c.words) * 8 }

func (c *Counters) locate(i int) (word int, shift uint) {
	if uint(i) >= uint(c.n) {
		panic(indexError{"counter", i, c.n})
	}
	if c.log2PerWord >= 0 {
		return i >> uint(c.log2PerWord), uint(i&(c.perWord-1)) * c.width
	}
	return i / c.perWord, uint(i%c.perWord) * c.width
}

// indexError and valueError are the accessors' panic values. They format
// their message only when printed, which keeps fmt out of the accessors and
// the accessors small enough to inline.
type indexError struct {
	what string
	i, n int
}

func (e indexError) Error() string {
	return fmt.Sprintf("bitpack: %s index %d out of range [0,%d)", e.what, e.i, e.n)
}

type valueError struct {
	v     uint64
	width uint
}

func (e valueError) Error() string {
	return fmt.Sprintf("bitpack: value %d exceeds %d-bit counter", e.v, e.width)
}

// Words exposes the packed backing array for serialization. The returned
// slice aliases the live data; callers must not retain it across mutations.
func (c *Counters) Words() []uint64 { return c.words }
