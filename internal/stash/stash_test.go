package stash

import (
	"testing"
	"testing/quick"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

func newTestStash(t *testing.T, maxItems int) (*Stash, *memmodel.Meter) {
	t.Helper()
	var m memmodel.Meter
	s, err := New(4, maxItems, 1, &m)
	if err != nil {
		t.Fatal(err)
	}
	return s, &m
}

func TestNewValidation(t *testing.T) {
	var m memmodel.Meter
	if _, err := New(-1, 0, 1, &m); err == nil {
		t.Error("negative dirBits accepted")
	}
	if _, err := New(25, 0, 1, &m); err == nil {
		t.Error("huge dirBits accepted")
	}
	if _, err := New(4, 0, 1, nil); err == nil {
		t.Error("nil meter accepted")
	}
}

func TestInsertLookupDelete(t *testing.T) {
	s, _ := newTestStash(t, 0)
	if !s.Insert(10, 100) {
		t.Fatal("insert failed")
	}
	if v, ok := s.Lookup(10); !ok || v != 100 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	if _, ok := s.Lookup(11); ok {
		t.Fatal("phantom key found")
	}
	if !s.Insert(10, 200) {
		t.Fatal("update failed")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after update, want 1", s.Len())
	}
	if v, _ := s.Lookup(10); v != 200 {
		t.Fatalf("value = %d after update, want 200", v)
	}
	if !s.Delete(10) {
		t.Fatal("delete failed")
	}
	if s.Delete(10) {
		t.Fatal("double delete succeeded")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete", s.Len())
	}
}

func TestCapacityLimit(t *testing.T) {
	s, _ := newTestStash(t, 4)
	for i := uint64(0); i < 4; i++ {
		if !s.Insert(i, i) {
			t.Fatalf("insert %d rejected below capacity", i)
		}
	}
	if !s.Full() {
		t.Fatal("stash should be full")
	}
	if s.Insert(99, 99) {
		t.Fatal("insert above capacity accepted")
	}
	// Updating an existing key must still work when full.
	if !s.Insert(2, 222) {
		t.Fatal("update rejected when full")
	}
}

func TestDrain(t *testing.T) {
	s, _ := newTestStash(t, 0)
	keys := map[uint64]uint64{}
	st := uint64(9)
	for i := 0; i < 50; i++ {
		k := hashutil.SplitMix64(&st)
		keys[k] = k * 2
		s.Insert(k, k*2)
	}
	got := s.Drain()
	if len(got) != 50 || s.Len() != 0 {
		t.Fatalf("Drain returned %d entries, Len=%d", len(got), s.Len())
	}
	for _, e := range got {
		if keys[e.Key] != e.Value {
			t.Fatalf("entry %v corrupted", e)
		}
		delete(keys, e.Key)
	}
	if len(keys) != 0 {
		t.Fatalf("%d entries lost in Drain", len(keys))
	}
}

func TestMeterCharging(t *testing.T) {
	s, m := newTestStash(t, 0)
	s.Insert(1, 1)
	if m.OffChipWrites != 1 {
		t.Fatalf("insert writes = %d, want 1", m.OffChipWrites)
	}
	before := m.OffChipReads
	s.Lookup(1)
	if m.OffChipReads <= before {
		t.Fatal("lookup charged no reads")
	}
	before = m.OffChipReads
	s.Lookup(2) // miss on some chain
	if m.OffChipReads <= before {
		t.Fatal("missed lookup charged no reads")
	}
}

func TestGroupsReadCost(t *testing.T) {
	// A chain of 9 entries in one slot needs ceil(9/4)=3 reads to miss.
	var m memmodel.Meter
	s, err := New(0, 0, 1, &m) // single directory slot
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 9; i++ {
		s.Insert(i, i)
	}
	m.Reset()
	s.Lookup(1000) // miss scans whole chain
	if m.OffChipReads != 3 {
		t.Fatalf("miss over 9-entry chain cost %d reads, want 3", m.OffChipReads)
	}
	m.Reset()
	s.Lookup(0) // first entry: one group
	if m.OffChipReads != 1 {
		t.Fatalf("hit on first entry cost %d reads, want 1", m.OffChipReads)
	}
}

// Property: the stash agrees with a map model under random operations.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val uint16
		Op  uint8
	}) bool {
		var m memmodel.Meter
		s, err := New(2, 0, 7, &m)
		if err != nil {
			return false
		}
		model := map[uint64]uint64{}
		for _, op := range ops {
			k, v := uint64(op.Key), uint64(op.Val)
			switch op.Op % 3 {
			case 0:
				s.Insert(k, v)
				model[k] = v
			case 1:
				gv, ok := s.Lookup(k)
				mv, mok := model[k]
				if ok != mok || (ok && gv != mv) {
					return false
				}
			case 2:
				if s.Delete(k) != (func() bool { _, ok := model[k]; return ok })() {
					return false
				}
				delete(model, k)
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFindMatchesLookupWithoutTraffic: Find answers as Lookup does, charges
// nothing, and reports exactly the off-chip reads Lookup charges.
func TestFindMatchesLookupWithoutTraffic(t *testing.T) {
	s, m := newTestStash(t, 0)
	for i := uint64(0); i < 40; i++ {
		s.Insert(i, i*3)
	}
	for i := uint64(0); i < 80; i++ {
		before := m.Snapshot()
		fv, fok, off := s.Find(i)
		if fok != (i < 40) || (fok && fv != i*3) {
			t.Fatalf("Find(%d) = (%d,%v)", i, fv, fok)
		}
		if delta := m.Snapshot().Sub(before); !delta.Same(memmodel.Meter{}) {
			t.Fatalf("Find(%d) charged traffic: %+v", i, delta)
		}
		lv, lok := s.Lookup(i)
		if lok != fok || lv != fv {
			t.Fatalf("Lookup(%d) = (%d,%v), Find (%d,%v)", i, lv, lok, fv, fok)
		}
		if delta := m.Snapshot().Sub(before); !delta.Same(memmodel.Meter{OffChipReads: off}) {
			t.Fatalf("Lookup(%d) charged %+v, Find reported %d off-chip reads", i, delta, off)
		}
	}
}

func TestRestore(t *testing.T) {
	s, _ := newTestStash(t, 0)
	entries := []kv.Entry{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 3, Value: 30}}
	if err := s.Restore(entries); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, e := range entries {
		if v, ok := s.Lookup(e.Key); !ok || v != e.Value {
			t.Fatalf("restored key %d = (%d,%v)", e.Key, v, ok)
		}
	}
	// Restore onto a non-empty stash fails.
	if err := s.Restore(entries); err == nil {
		t.Error("Restore on non-empty stash accepted")
	}
	// Restore beyond capacity fails.
	capped, _ := newTestStash(t, 2)
	if err := capped.Restore(entries); err == nil {
		t.Error("Restore beyond capacity accepted")
	}
}

func TestInsertUpdateChargesTraffic(t *testing.T) {
	s, m := newTestStash(t, 0)
	s.Insert(7, 1)
	before := m.Snapshot()
	s.Insert(7, 2) // update path
	delta := m.Snapshot().Sub(before)
	if delta.OffChipReads == 0 || delta.OffChipWrites != 1 {
		t.Fatalf("update charged %+v", delta)
	}
	if v, _ := s.Lookup(7); v != 2 {
		t.Fatal("update lost")
	}
}

func TestEntriesCopies(t *testing.T) {
	s, _ := newTestStash(t, 0)
	s.Insert(1, 1)
	s.Insert(2, 2)
	got := s.Entries()
	if len(got) != 2 || s.Len() != 2 {
		t.Fatalf("Entries = %v, Len = %d", got, s.Len())
	}
}
