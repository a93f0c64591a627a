package hashutil

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestBOB32KnownVectors(t *testing.T) {
	// Reference values computed from Bob Jenkins' lookup3.c hashlittle().
	// The empty-string value is documented in lookup3.c's self-test
	// ("hash is deadbeef" for zero-length input with seed 0).
	if got := BOB32(nil, 0); got != 0xdeadbeef {
		t.Errorf("BOB32(nil, 0) = %#x, want 0xdeadbeef", got)
	}
	// Zero-length with non-zero seed: a = b = c = 0xdeadbeef + seed, no
	// mixing rounds run.
	if got := BOB32(nil, 1); got != 0xdeadbeef+1 {
		t.Errorf("BOB32(nil, 1) = %#x, want %#x", got, uint32(0xdeadbeef+1))
	}
}

func TestBOB32Deterministic(t *testing.T) {
	data := []byte("Four score and seven years ago")
	a := BOB32(data, 13)
	b := BOB32(data, 13)
	if a != b {
		t.Fatalf("BOB32 not deterministic: %#x vs %#x", a, b)
	}
	if c := BOB32(data, 14); c == a {
		t.Fatalf("BOB32 seed change did not change hash (%#x)", a)
	}
}

func TestBOB32TailLengths(t *testing.T) {
	// Hashes of every prefix length 0..40 must all differ pairwise with
	// overwhelming probability; equal values would indicate broken tail
	// handling.
	base := []byte("abcdefghijklmnopqrstuvwxyz0123456789ABCD")
	seen := make(map[uint32]int)
	for n := 0; n <= len(base); n++ {
		h := BOB32(base[:n], 42)
		if prev, dup := seen[h]; dup {
			t.Fatalf("prefix lengths %d and %d collide: %#x", prev, n, h)
		}
		seen[h] = n
	}
}

func TestBOB64KeyAvalanche(t *testing.T) {
	// Flipping any single input bit should flip roughly half the output
	// bits. We allow a generous band since this is a sanity check, not a
	// statistical proof.
	const trials = 64
	key := uint64(0x0123456789abcdef)
	base := BOB64Key(key, 7)
	total := 0
	for bit := 0; bit < trials; bit++ {
		h := BOB64Key(key^(1<<uint(bit)), 7)
		diff := base ^ h
		n := 0
		for diff != 0 {
			diff &= diff - 1
			n++
		}
		total += n
		if n < 8 || n > 56 {
			t.Errorf("bit %d: only %d output bits changed", bit, n)
		}
	}
	avg := float64(total) / trials
	if avg < 24 || avg > 40 {
		t.Errorf("average flipped bits = %.1f, want near 32", avg)
	}
}

func TestSplitMix64Stream(t *testing.T) {
	s := uint64(1)
	a := SplitMix64(&s)
	b := SplitMix64(&s)
	if a == b {
		t.Fatal("consecutive splitmix64 outputs equal")
	}
	s2 := uint64(1)
	if a2 := SplitMix64(&s2); a2 != a {
		t.Fatalf("splitmix64 not reproducible: %#x vs %#x", a2, a)
	}
}

func TestMix64Property(t *testing.T) {
	// Mix64 must be injective-ish in practice: random x != y should map to
	// different outputs.
	f := func(x, y uint64) bool {
		if x == y {
			return true
		}
		return Mix64(x) != Mix64(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFamilyValidation(t *testing.T) {
	if _, err := NewFamily(1, 10, 0); err == nil {
		t.Error("d=1 accepted, want error")
	}
	if _, err := NewFamily(MaxD+1, 10, 0); err == nil {
		t.Error("d too large accepted, want error")
	}
	if _, err := NewFamily(3, 0, 0); err == nil {
		t.Error("n=0 accepted, want error")
	}
	f, err := NewFamily(3, 128, 99)
	if err != nil {
		t.Fatalf("NewFamily: %v", err)
	}
	if f.D() != 3 || f.N() != 128 {
		t.Errorf("D()=%d N()=%d, want 3, 128", f.D(), f.N())
	}
}

func TestFamilyRange(t *testing.T) {
	f, err := NewFamily(3, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(77)
	for i := 0; i < 10000; i++ {
		key := SplitMix64(&s)
		for j := 0; j < 3; j++ {
			idx := f.Index(j, key)
			if idx < 0 || idx >= 1000 {
				t.Fatalf("Index(%d, %#x) = %d out of range", j, key, idx)
			}
		}
	}
}

func TestFamilyIndependence(t *testing.T) {
	// The three functions should rarely agree on the same bucket for the
	// same key (expected rate 1/n per pair).
	f, _ := NewFamily(3, 1<<14, 5)
	s := uint64(3)
	agree := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		key := SplitMix64(&s)
		var idx [3]int
		f.Indexes(key, idx[:])
		if idx[0] == idx[1] || idx[1] == idx[2] || idx[0] == idx[2] {
			agree++
		}
	}
	// Expected ~ trials * 3/n = ~3.7; tolerate up to 30.
	if agree > 30 {
		t.Errorf("candidate buckets agree %d/%d times, too correlated", agree, trials)
	}
}

func TestFamilyUniformity(t *testing.T) {
	// Chi-squared-ish sanity check: bucket counts over many keys should be
	// close to uniform.
	const n = 256
	const keys = 256 * 200
	f, _ := NewFamily(2, n, 11)
	counts := make([]int, n)
	s := uint64(123)
	for i := 0; i < keys; i++ {
		counts[f.Index(0, SplitMix64(&s))]++
	}
	mean := float64(keys) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - mean
		chi2 += d * d / mean
	}
	// df = 255; mean 255, sd ~22.6. Accept within ~6 sd.
	if chi2 > 400 {
		t.Errorf("chi-squared = %.1f, distribution too skewed", chi2)
	}
}

func TestFamilyIndexes(t *testing.T) {
	f, _ := NewFamily(4, 64, 1)
	var dst [8]int
	got := f.Indexes(42, dst[:])
	if len(got) != 4 {
		t.Fatalf("Indexes returned %d entries, want 4", len(got))
	}
	for i, idx := range got {
		if idx != f.Index(i, 42) {
			t.Errorf("Indexes[%d] = %d, Index = %d", i, idx, f.Index(i, 42))
		}
	}
}

func TestDoubleHashedFamily(t *testing.T) {
	f, err := NewDoubleHashedFamily(4, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(77)
	for i := 0; i < 5000; i++ {
		key := SplitMix64(&s)
		var idx [8]int
		f.Indexes(key, idx[:])
		for j := 0; j < 4; j++ {
			if idx[j] < 0 || idx[j] >= 1000 {
				t.Fatalf("index %d out of range: %d", j, idx[j])
			}
		}
		// h2 is odd and n=1000, so consecutive derived indexes differ.
		if idx[2] == idx[3] {
			t.Fatalf("derived indexes collide for key %#x", key)
		}
	}
	// Uniformity of the derived function h_2.
	const n = 256
	g, _ := NewDoubleHashedFamily(3, n, 11)
	counts := make([]int, n)
	s = uint64(123)
	for i := 0; i < n*200; i++ {
		counts[g.Index(2, SplitMix64(&s))]++
	}
	mean := 200.0
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - mean
		chi2 += d * d / mean
	}
	if chi2 > 400 {
		t.Errorf("double-hashed index chi-squared = %.1f, too skewed", chi2)
	}
}

func TestDoubleHashedFamilyFillsTable(t *testing.T) {
	// The derived indexes must be good enough for real cuckoo behaviour:
	// spot-check that no two of the three candidates systematically
	// coincide.
	f, _ := NewDoubleHashedFamily(3, 1<<12, 13)
	s := uint64(17)
	agree := 0
	for i := 0; i < 20000; i++ {
		var idx [8]int
		f.Indexes(SplitMix64(&s), idx[:])
		if idx[0] == idx[1] || idx[1] == idx[2] || idx[0] == idx[2] {
			agree++
		}
	}
	if agree > 40 {
		t.Errorf("candidates coincide %d/20000 times", agree)
	}
}

func TestBOB64KeyMatchesGenericPath(t *testing.T) {
	// The specialized 8-byte-key path (precomputed seed state + one
	// finalization) must be bit-identical to hashing the key's
	// little-endian bytes through the generic BOB64: every stored table
	// placement depends on this equivalence.
	s := uint64(3)
	for i := 0; i < 4096; i++ {
		key, seed := SplitMix64(&s), SplitMix64(&s)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], key)
		want := BOB64(buf[:], seed)
		if got := BOB64Key(key, seed); got != want {
			t.Fatalf("BOB64Key(%#x, %#x) = %#x, want %#x", key, seed, got, want)
		}
		a0, c0 := bobKeyState(seed)
		if got := bobKeyFinish(a0, c0, key); got != want {
			t.Fatalf("bobKeyFinish(%#x, %#x) = %#x, want %#x", key, seed, got, want)
		}
	}
	// Edge keys exercise the zero and all-ones word splits.
	for _, key := range []uint64{0, 1, ^uint64(0), 1 << 63, 0xffffffff, 0xffffffff00000000} {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], key)
		if got, want := BOB64Key(key, 99), BOB64(buf[:], 99); got != want {
			t.Fatalf("BOB64Key(%#x) = %#x, want %#x", key, got, want)
		}
	}
}

func TestFamilyIndexesMatchIndex(t *testing.T) {
	// Indexes' amortized loop and the per-function Index must agree for
	// both family constructions.
	for _, double := range []bool{false, true} {
		f, err := NewFamily(4, 12345, 7)
		if double {
			f, err = NewDoubleHashedFamily(4, 12345, 7)
		}
		if err != nil {
			t.Fatal(err)
		}
		s := uint64(11)
		for i := 0; i < 2048; i++ {
			key := SplitMix64(&s)
			var idx [MaxD]int
			f.Indexes(key, idx[:])
			for j := 0; j < 4; j++ {
				if want := f.Index(j, key); idx[j] != want {
					t.Fatalf("double=%v Indexes[%d]=%d, Index=%d", double, j, idx[j], want)
				}
			}
		}
	}
}
