package bitpack

import (
	"fmt"
	"testing"
	"testing/quick"
)

// wantPanic runs fn and checks that it panics with a value that prints as
// want under %v, as the wire server's recover logs it.
func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if got := fmt.Sprintf("%v", recover()); got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	}()
	fn()
}

func TestCountersValidation(t *testing.T) {
	if _, err := NewCounters(-1, 2); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := NewCounters(10, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewCounters(10, 17); err == nil {
		t.Error("width 17 accepted")
	}
}

func TestCountersBasics(t *testing.T) {
	c, err := NewCounters(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 100 || c.Width() != 2 || c.Max() != 3 {
		t.Fatalf("Len=%d Width=%d Max=%d", c.Len(), c.Width(), c.Max())
	}
	for i := 0; i < 100; i++ {
		if c.Get(i) != 0 {
			t.Fatalf("counter %d not zero initially", i)
		}
	}
	c.Set(0, 3)
	c.Set(1, 1)
	c.Set(99, 2)
	if c.Get(0) != 3 || c.Get(1) != 1 || c.Get(99) != 2 {
		t.Fatalf("get after set: %d %d %d", c.Get(0), c.Get(1), c.Get(99))
	}
	// Neighbours untouched.
	if c.Get(2) != 0 || c.Get(98) != 0 {
		t.Fatal("neighbouring counters disturbed")
	}
}

func TestCountersDec(t *testing.T) {
	c, _ := NewCounters(4, 2)
	c.Set(2, 3)
	if v := c.Dec(2); v != 2 {
		t.Fatalf("Dec returned %d, want 2", v)
	}
	if c.Get(2) != 2 {
		t.Fatalf("counter = %d after Dec, want 2", c.Get(2))
	}
	wantPanic(t, "bitpack: decrement of zero counter", func() { c.Dec(0) })
}

func TestCountersSetOverflowPanics(t *testing.T) {
	c, _ := NewCounters(4, 2)
	wantPanic(t, "bitpack: value 4 exceeds 2-bit counter", func() { c.Set(0, 4) })
}

func TestCountersOutOfRangePanics(t *testing.T) {
	c, _ := NewCounters(4, 2)
	for _, i := range []int{-1, 4} {
		wantPanic(t, fmt.Sprintf("bitpack: counter index %d out of range [0,4)", i), func() { c.Get(i) })
	}
}

func TestCountersReset(t *testing.T) {
	c, _ := NewCounters(70, 3)
	for i := 0; i < 70; i++ {
		c.Set(i, uint64(i)%8)
	}
	c.Reset()
	for i := 0; i < 70; i++ {
		if c.Get(i) != 0 {
			t.Fatalf("counter %d = %d after Reset", i, c.Get(i))
		}
	}
}

func TestCountersSizeBytes(t *testing.T) {
	// 1M buckets at 2 bits each: 32 counters/word -> 32768 words -> 256 KiB.
	c, _ := NewCounters(1<<20, 2)
	if got := c.SizeBytes(); got != 1<<18 {
		t.Errorf("SizeBytes = %d, want %d", got, 1<<18)
	}
}

// Property: a packed Counters behaves exactly like a plain slice under an
// arbitrary sequence of Set operations, for every width.
func TestCountersQuickEquivalence(t *testing.T) {
	for _, width := range []uint{1, 2, 3, 5, 7, 16} {
		width := width
		f := func(ops []struct {
			Idx uint16
			Val uint16
		}) bool {
			const n = 257 // odd size to exercise partial final word
			c, err := NewCounters(n, width)
			if err != nil {
				return false
			}
			model := make([]uint64, n)
			for _, op := range ops {
				i := int(op.Idx) % n
				v := uint64(op.Val) & c.Max()
				c.Set(i, v)
				model[i] = v
			}
			for i := 0; i < n; i++ {
				if c.Get(i) != model[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("width %d: %v", width, err)
		}
	}
}

func TestBitsetBasics(t *testing.T) {
	b, err := NewBitset(130)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("Len=%d Count=%d", b.Len(), b.Count())
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get/Set mismatch")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Fatal("Clear failed")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestBitsetValidation(t *testing.T) {
	if _, err := NewBitset(-1); err == nil {
		t.Error("negative length accepted")
	}
	b, _ := NewBitset(8)
	wantPanic(t, "bitpack: bit index 8 out of range [0,8)", func() { b.Set(8) })
}

// Property: Bitset matches a []bool model.
func TestBitsetQuickEquivalence(t *testing.T) {
	f := func(ops []struct {
		Idx uint16
		On  bool
	}) bool {
		const n = 200
		b, _ := NewBitset(n)
		model := make([]bool, n)
		for _, op := range ops {
			i := int(op.Idx) % n
			if op.On {
				b.Set(i)
			} else {
				b.Clear(i)
			}
			model[i] = op.On
		}
		count := 0
		for i := 0; i < n; i++ {
			if b.Get(i) != model[i] {
				return false
			}
			if model[i] {
				count++
			}
		}
		return b.Count() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCountersWordsRoundTrip(t *testing.T) {
	a, _ := NewCounters(100, 3)
	for i := 0; i < 100; i++ {
		a.Set(i, uint64(i)%8)
	}
	b, _ := NewCounters(100, 3)
	if err := b.LoadWords(a.Words()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if b.Get(i) != a.Get(i) {
			t.Fatalf("counter %d: %d != %d", i, b.Get(i), a.Get(i))
		}
	}
	// Geometry mismatch rejected.
	c, _ := NewCounters(50, 3)
	if err := c.LoadWords(a.Words()); err == nil {
		t.Error("mismatched LoadWords accepted")
	}
}

func TestBitsetWordsRoundTrip(t *testing.T) {
	a, _ := NewBitset(130)
	a.Set(0)
	a.Set(64)
	a.Set(129)
	b, _ := NewBitset(130)
	if err := b.LoadWords(a.Words()); err != nil {
		t.Fatal(err)
	}
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Count() != 3 {
		t.Fatal("bitset words round-trip failed")
	}
	c, _ := NewBitset(10)
	if err := c.LoadWords(a.Words()); err == nil {
		t.Error("mismatched LoadWords accepted")
	}
}

func TestBitsetClearOutOfRange(t *testing.T) {
	b, _ := NewBitset(8)
	wantPanic(t, "bitpack: bit index -1 out of range [0,8)", func() { b.Clear(-1) })
}
