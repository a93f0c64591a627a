package mccuckoo

import (
	"bytes"
	"testing"

	"mccuckoo/internal/hashutil"
)

func TestPublicSnapshotRoundTrip(t *testing.T) {
	tab, err := New(600, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 400)
	s := uint64(12)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i]*2)
	}
	for _, k := range keys[:100] {
		tab.Delete(k)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tab.Len() || got.Traffic() != tab.Traffic() {
		t.Fatalf("state differs after load: Len %d/%d", got.Len(), tab.Len())
	}
	for _, k := range keys[100:] {
		if v, ok := got.Lookup(k); !ok || v != k*2 {
			t.Fatalf("key %#x lost across public snapshot", k)
		}
	}
}

func TestPublicBlockedSnapshotRoundTrip(t *testing.T) {
	tab, err := NewBlocked(540, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(14)
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i])
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBlocked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := got.Lookup(k); !ok {
			t.Fatalf("key %#x lost", k)
		}
	}
	// Cross-kind load must fail cleanly.
	buf.Reset()
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("Load accepted a blocked snapshot")
	}
}

func TestPublicGrow(t *testing.T) {
	tab, err := New(300, WithSeed(15), WithMaxLoop(50))
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(16)
	keys := make([]uint64, 280)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i])
	}
	if err := tab.Grow(4); err != nil {
		t.Fatal(err)
	}
	if tab.Capacity() < 1200 {
		t.Fatalf("capacity %d after Grow(4)", tab.Capacity())
	}
	for _, k := range keys {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("key %#x lost across Grow", k)
		}
	}
	if err := tab.Grow(0.1); err == nil {
		t.Error("shrink factor accepted")
	}
	b, err := NewBlocked(360, WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(1, 2)
	if err := b.Grow(2); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Lookup(1); !ok || v != 2 {
		t.Fatal("blocked Grow lost the item")
	}
}

func TestPublicInsertPathwise(t *testing.T) {
	tab, err := New(900, WithSeed(18), WithUniqueKeys())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tab)
	s := uint64(19)
	keys := make([]uint64, 801)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		if c.InsertPathwise(keys[i], keys[i]).Status == Failed {
			t.Fatal("pathwise insert failed")
		}
	}
	for _, k := range keys {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("key %#x lost", k)
		}
	}
}
