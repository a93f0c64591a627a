package mccuckoo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(4); err == nil {
		t.Error("tiny capacity accepted")
	}
	if _, err := New(100, WithHashFunctions(5)); err == nil {
		t.Error("d=5 accepted")
	}
	if _, err := New(100, WithMaxLoop(0)); err == nil {
		t.Error("maxloop=0 accepted")
	}
	if _, err := New(100, WithStashLimit(0)); err == nil {
		t.Error("stash limit 0 accepted")
	}
	if _, err := NewBlocked(100, WithSlots(5)); err == nil {
		t.Error("slots=5 accepted")
	}
}

// TestSingleSlotIgnoresWithSlots pins that WithSlots does not shrink the
// single-slot kinds: New and NewSharded size their tables with l = 1.
func TestSingleSlotIgnoresWithSlots(t *testing.T) {
	plain, err := New(1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{2, 3, 4} {
		tab, err := New(1024, WithSlots(l))
		if err != nil {
			t.Fatal(err)
		}
		if tab.Capacity() != plain.Capacity() {
			t.Errorf("New(1024, WithSlots(%d)).Capacity() = %d, want %d", l, tab.Capacity(), plain.Capacity())
		}
		sh, err := NewSharded(1024, 4, WithSlots(l))
		if err != nil {
			t.Fatal(err)
		}
		if sh.Capacity() < 1024 {
			t.Errorf("NewSharded(1024, 4, WithSlots(%d)).Capacity() = %d, below the request", l, sh.Capacity())
		}
	}
}

// TestBlockedRejectsWithoutLookupPrescreen pins that NewBlocked refuses the
// option it cannot honour instead of ignoring it, while a blocked snapshot
// whose configuration carries the flag still loads.
func TestBlockedRejectsWithoutLookupPrescreen(t *testing.T) {
	if _, err := NewBlocked(900, WithoutLookupPrescreen()); err == nil {
		t.Fatal("NewBlocked accepted WithoutLookupPrescreen")
	}
	inner, err := core.NewBlocked(core.Config{BucketsPerTable: 100, Seed: 5,
		StashEnabled: true, DisablePrescreen: true})
	if err != nil {
		t.Fatal(err)
	}
	inner.Insert(7, 70)
	var buf bytes.Buffer
	if _, err := inner.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tab, err := LoadBlocked(&buf)
	if err != nil {
		t.Fatalf("blocked snapshot with the prescreen flag rejected: %v", err)
	}
	if v, ok := tab.Lookup(7); !ok || v != 70 {
		t.Fatalf("Lookup(7) = %d,%v after load", v, ok)
	}
}

func TestTableRoundTrip(t *testing.T) {
	tab, err := New(3000, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Capacity() < 3000 {
		t.Fatalf("capacity %d below requested", tab.Capacity())
	}
	for k := uint64(1); k <= 1000; k++ {
		if res := tab.Insert(k, k*2); res.Status == Failed {
			t.Fatalf("insert %d failed", k)
		}
	}
	for k := uint64(1); k <= 1000; k++ {
		if v, ok := tab.Lookup(k); !ok || v != k*2 {
			t.Fatalf("lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if tab.Len() != 1000 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if res := tab.Insert(5, 99); res.Status != Updated {
		t.Fatalf("re-insert status %v", res.Status)
	}
	if v, _ := tab.Lookup(5); v != 99 {
		t.Fatal("update lost")
	}
	if !tab.Delete(5) || tab.Delete(5) {
		t.Fatal("delete semantics broken")
	}
	if tab.Copies() < tab.Len() {
		t.Fatalf("Copies %d below Len %d", tab.Copies(), tab.Len())
	}
	tr := tab.Traffic()
	if tr.OffChipWrites == 0 || tr.OnChipReads == 0 {
		t.Fatalf("traffic not recorded: %+v", tr)
	}
	st := tab.Stats()
	if st.Inserts != 1001 || st.Deletes != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// d=3 counters are 2 bits each: OnChipBytes must be ~capacity/4.
	if got, want := tab.OnChipBytes(), tab.Capacity()/4; got < want || got > want+8 {
		t.Fatalf("OnChipBytes = %d, want ~%d", got, want)
	}
}

func TestBlockedRoundTrip(t *testing.T) {
	tab, err := NewBlocked(3600, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	n := int(0.99 * float64(tab.Capacity()))
	s := uint64(3)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		if res := tab.Insert(keys[i], keys[i]); res.Status == Failed {
			t.Fatalf("insert %d failed at 99%% target", i)
		}
	}
	for _, k := range keys {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("key %#x lost", k)
		}
	}
	if tab.LoadRatio() < 0.98 {
		t.Fatalf("load ratio %.3f", tab.LoadRatio())
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Placed: "placed", Updated: "updated", Stashed: "stashed", Failed: "failed",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestStatsJSONNames pins the JSON names of the public Stats: the
// snake_case names of the ops object /debug/mccuckoo/stats serves.
func TestStatsJSONNames(t *testing.T) {
	b, err := json.Marshal(Stats{Inserts: 3, Kicks: 2, StashProbes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"inserts":3,"kicks":2,"lookups":0,"hits":0,"deletes":0,"stash_probes":1}`; string(b) != want {
		t.Errorf("Stats marshals as %s, want %s", b, want)
	}
}

func TestWithoutStashFailsWhenFull(t *testing.T) {
	tab, err := New(60, WithoutStash(), WithMaxLoop(20), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	s := uint64(5)
	for i := 0; i < 100; i++ {
		if tab.Insert(hashutil.SplitMix64(&s), 1).Status == Failed {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("overfull table without stash never failed")
	}
}

func TestOptionVariantsWork(t *testing.T) {
	variants := [][]Option{
		{WithHashFunctions(4)},
		{WithTombstoneDeletion()},
		{WithMinCounterResolver()},
		{WithoutLookupPrescreen()},
		{WithUniqueKeys()},
		{WithStashLimit(16)},
	}
	for i, opts := range variants {
		tab, err := New(600, append(opts, WithSeed(uint64(i)))...)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		s := uint64(i)
		keys := make([]uint64, 300)
		for j := range keys {
			keys[j] = hashutil.SplitMix64(&s)
			tab.Insert(keys[j], keys[j])
		}
		for _, k := range keys {
			if _, ok := tab.Lookup(k); !ok {
				t.Fatalf("variant %d lost key %#x", i, k)
			}
		}
		for _, k := range keys[:100] {
			if !tab.Delete(k) {
				t.Fatalf("variant %d: delete failed", i)
			}
		}
	}
}

func TestConcurrentWrapper(t *testing.T) {
	tab, err := New(6000, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := uint64(1); k < 2000; k++ {
				c.Lookup(k)
			}
		}(r)
	}
	for k := uint64(1); k < 2000; k++ {
		c.Insert(k, k)
	}
	wg.Wait()
	if c.Len() != 1999 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Stats().Lookups == 0 {
		t.Fatal("lookups not counted")
	}

	// Blocked variant through the same generic constructor.
	b, err := NewBlocked(900, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	cb := NewConcurrent(b)
	cb.Insert(1, 2)
	if v, ok := cb.Lookup(1); !ok || v != 2 {
		t.Fatal("blocked concurrent lookup failed")
	}
	if !cb.Delete(1) {
		t.Fatal("blocked concurrent delete failed")
	}
	if cb.LoadRatio() != 0 {
		t.Fatal("load ratio after delete")
	}
}

func TestMapStringKeys(t *testing.T) {
	m, err := NewMap[string, int](3000, StringHasher, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := m.Set(fmt.Sprintf("key-%04d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 1000 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 1000; i++ {
		if v, ok := m.Get(fmt.Sprintf("key-%04d", i)); !ok || v != i {
			t.Fatalf("Get(key-%04d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := m.Get("missing"); ok {
		t.Fatal("phantom hit")
	}
	// Update.
	if err := m.Set("key-0001", -1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get("key-0001"); v != -1 {
		t.Fatal("update lost")
	}
	if m.Len() != 1000 {
		t.Fatalf("Len changed on update: %d", m.Len())
	}
	// Delete and slot reuse.
	if !m.Delete("key-0002") || m.Delete("key-0002") {
		t.Fatal("delete semantics broken")
	}
	if err := m.Set("key-fresh", 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get("key-fresh"); v != 42 {
		t.Fatal("reused slot corrupted")
	}
	// Range visits everything exactly once.
	seen := map[string]bool{}
	m.Range(func(k string, v int) bool {
		if seen[k] {
			t.Fatalf("key %q visited twice", k)
		}
		seen[k] = true
		return true
	})
	if len(seen) != m.Len() {
		t.Fatalf("Range visited %d of %d", len(seen), m.Len())
	}
}

func TestMapFingerprintCollision(t *testing.T) {
	// A deliberately colliding hasher: all keys share one fingerprint.
	m, err := NewMap[string, int](300, func(string) uint64 { return 42 }, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b", 2); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if v, ok := m.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d,%v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete("b") {
		t.Fatal("spilled delete failed")
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("spilled key survived delete")
	}
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatal("resident key damaged by spill delete")
	}
}

func TestMapNilHasher(t *testing.T) {
	if _, err := NewMap[string, int](100, nil); err == nil {
		t.Error("nil hasher accepted")
	}
}

func TestMapModelEquivalence(t *testing.T) {
	m, err := NewMap[uint32, uint32](4000, func(k uint32) uint64 {
		return hashutil.Mix64(uint64(k))
	}, WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint32]uint32{}
	s := uint64(11)
	for i := 0; i < 10000; i++ {
		r := hashutil.SplitMix64(&s)
		key := uint32(r % 1500)
		switch (r >> 32) % 4 {
		case 0, 1:
			val := uint32(r >> 40)
			if err := m.Set(key, val); err == nil {
				model[key] = val
			}
		case 2:
			got, ok := m.Get(key)
			want, wok := model[key]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v) want (%d,%v)", i, key, got, ok, want, wok)
			}
		case 3:
			_, wok := model[key]
			if got := m.Delete(key); got != wok {
				t.Fatalf("op %d: Delete(%d) = %v want %v", i, key, got, wok)
			}
			delete(model, key)
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", m.Len(), len(model))
	}
}

func TestHashersDiffer(t *testing.T) {
	if StringHasher("abc") == StringHasher("abd") {
		t.Error("string hasher collision on near keys")
	}
	if BytesHasher([]byte("abc")) != StringHasher("abc") {
		t.Error("bytes and string hashers disagree")
	}
	if Uint64Hasher(1) == Uint64Hasher(2) {
		t.Error("uint64 hasher collision")
	}
}

func TestWithDoubleHashing(t *testing.T) {
	tab, err := New(3000, WithSeed(21), WithDoubleHashing())
	if err != nil {
		t.Fatal(err)
	}
	s := hashutil.Mix64(22)
	keys := make([]uint64, 2400)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		if tab.Insert(keys[i], keys[i]).Status == Failed {
			t.Fatal("insert failed")
		}
	}
	for _, k := range keys {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("key %#x lost with double hashing", k)
		}
	}
}
