package mccuckoo

import (
	"testing"
)

// storeKinds builds one instance of every public Store kind at the given
// capacity, all seeded identically. Every kind must pass the same
// conformance matrix — the point of the Store/BatchStore redesign is that
// consumers cannot tell them apart.
func storeKinds(t *testing.T, capacity int) map[string]BatchStore {
	t.Helper()
	single, err := New(capacity, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := NewBlocked(capacity, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := New(capacity, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(capacity, 4, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]BatchStore{
		"table":      single,
		"blocked":    blocked,
		"concurrent": NewConcurrent(wrapped),
		"sharded":    sharded,
	}
}

func key(i int) uint64 { return uint64(i)*2654435761 + 1 }
func val(i int) uint64 { return uint64(i) ^ 0xfeedface }

// TestStoreConformance runs the same insert/lookup/delete/batch matrix over
// every Store implementation against a reference map.
func TestStoreConformance(t *testing.T) {
	const n = 2000
	for name, s := range storeKinds(t, 4*n) {
		t.Run(name, func(t *testing.T) {
			ref := make(map[uint64]uint64, n)

			// Point inserts, including updates of live keys.
			for i := 0; i < n; i++ {
				r := s.Insert(key(i), val(i))
				if r.Status == Failed {
					t.Fatalf("insert %d failed at load %.2f", i, s.LoadRatio())
				}
				ref[key(i)] = val(i)
			}
			for i := 0; i < n; i += 3 {
				r := s.Insert(key(i), val(i)+1)
				if r.Status != Updated {
					t.Fatalf("re-insert %d: status %v, want Updated", i, r.Status)
				}
				ref[key(i)] = val(i) + 1
			}

			// Point lookups, positive and negative.
			for i := 0; i < n; i++ {
				v, ok := s.Lookup(key(i))
				if !ok || v != ref[key(i)] {
					t.Fatalf("lookup %d: got %d,%v want %d,true", i, v, ok, ref[key(i)])
				}
			}
			for i := n; i < n+100; i++ {
				if _, ok := s.Lookup(key(i)); ok {
					t.Fatalf("lookup of never-inserted key %d hit", i)
				}
			}

			// Point deletes; deleted keys must stop answering.
			for i := 0; i < n; i += 5 {
				if !s.Delete(key(i)) {
					t.Fatalf("delete %d: not present", i)
				}
				delete(ref, key(i))
				if s.Delete(key(i)) {
					t.Fatalf("double delete %d reported present", i)
				}
			}
			checkAgainst(t, s, ref, n)

			if s.Len() != len(ref) {
				t.Fatalf("Len() = %d, want %d", s.Len(), len(ref))
			}
			if c := s.Capacity(); c < 4*n/2 {
				t.Fatalf("Capacity() = %d, implausibly small", c)
			}
			if lr := s.LoadRatio(); lr <= 0 || lr > 1 {
				t.Fatalf("LoadRatio() = %v out of (0,1]", lr)
			}
			if s.StashLen() < 0 {
				t.Fatalf("StashLen() = %d negative", s.StashLen())
			}
			st := s.Stats()
			if st.Inserts == 0 || st.Lookups == 0 || st.Deletes == 0 {
				t.Fatalf("Stats() missing counts: %+v", st)
			}
		})
	}
}

// TestBatchStoreConformance checks that the batched forms agree with the
// point operations on every kind.
func TestBatchStoreConformance(t *testing.T) {
	const n = 1200
	for name, s := range storeKinds(t, 4*n) {
		t.Run(name, func(t *testing.T) {
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i], vals[i] = key(i), val(i)
			}

			out := make([]InsertResult, n)
			s.InsertBatchInto(keys, vals, out)
			for i, r := range out {
				if r.Status == Failed {
					t.Fatalf("batch insert %d failed", i)
				}
			}

			// Re-insert with the same, reused result slice: every key is
			// live, so every result must be Updated.
			s.InsertBatchInto(keys, vals, out)
			for i, r := range out {
				if r.Status != Updated {
					t.Fatalf("batch re-insert %d: status %v, want Updated", i, r.Status)
				}
			}

			// Mixed positive/negative batch lookup.
			probe := make([]uint64, 0, n+200)
			probe = append(probe, keys...)
			for i := n; i < n+200; i++ {
				probe = append(probe, key(i))
			}
			gotVals, gotFound := lookupBatch(s, probe)
			for i := range probe {
				wantOK := i < n
				if gotFound[i] != wantOK {
					t.Fatalf("batch lookup %d: found %v, want %v", i, gotFound[i], wantOK)
				}
				if wantOK && gotVals[i] != vals[i] {
					t.Fatalf("batch lookup %d: value %d, want %d", i, gotVals[i], vals[i])
				}
			}

			// Delete half with results, the rest with a nil result slice
			// (discard).
			removed := make([]bool, n/2)
			s.DeleteBatchInto(probe[:n/2], removed)
			for i, ok := range removed {
				if !ok {
					t.Fatalf("batch delete %d reported absent", i)
				}
			}
			s.DeleteBatchInto(keys[n/2:], nil)
			if s.Len() != 0 {
				t.Fatalf("after full delete Len() = %d, want 0", s.Len())
			}

			// Batch argument validation panics, uniformly across kinds, and
			// applies nothing.
			mustPanic(t, name+"/mismatched", func() { s.InsertBatchInto(keys[:3], vals[:2], nil) })
			mustPanic(t, name+"/shortout", func() { s.InsertBatchInto(keys[:3], vals[:3], make([]InsertResult, 2)) })
			mustPanic(t, name+"/shortfound", func() { s.LookupBatchInto(keys[:3], make([]uint64, 3), make([]bool, 2)) })
			mustPanic(t, name+"/shortremoved", func() { s.DeleteBatchInto(keys[:3], make([]bool, 2)) })
			if s.Len() != 0 {
				t.Fatalf("after rejected batches Len() = %d, want 0", s.Len())
			}
		})
	}
}

// TestBatchMatchesPoint replays the same mixed trace through point ops on
// one instance and batches on another; final contents must be identical.
func TestBatchMatchesPoint(t *testing.T) {
	const n = 800
	kinds := []string{"table", "blocked", "concurrent", "sharded"}
	for _, name := range kinds {
		t.Run(name, func(t *testing.T) {
			point := storeKinds(t, 8*n)[name]
			batched := storeKinds(t, 8*n)[name]

			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i], vals[i] = key(i), val(i)
			}
			for i := range keys {
				point.Insert(keys[i], vals[i])
			}
			batched.InsertBatchInto(keys, vals, nil)
			for i := 0; i < n; i += 2 {
				point.Delete(keys[i])
			}
			half := make([]uint64, 0, n/2)
			for i := 0; i < n; i += 2 {
				half = append(half, keys[i])
			}
			batched.DeleteBatchInto(half, nil)

			if point.Len() != batched.Len() {
				t.Fatalf("Len diverged: point %d, batched %d", point.Len(), batched.Len())
			}
			bv, bf := lookupBatch(batched, keys)
			for i, k := range keys {
				pv, pf := point.Lookup(k)
				if pf != bf[i] || (pf && pv != bv[i]) {
					t.Fatalf("key %d diverged: point %d,%v batched %d,%v", i, pv, pf, bv[i], bf[i])
				}
			}
		})
	}
}

// lookupBatch answers keys through s.LookupBatchInto into fresh slices.
func lookupBatch(s BatchStore, keys []uint64) (values []uint64, found []bool) {
	values, found = make([]uint64, len(keys)), make([]bool, len(keys))
	s.LookupBatchInto(keys, values, found)
	return values, found
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func checkAgainst(t *testing.T, s Store, ref map[uint64]uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		want, live := ref[key(i)]
		got, ok := s.Lookup(key(i))
		if ok != live || (live && got != want) {
			t.Fatalf("key %d: got %d,%v want %d,%v", i, got, ok, want, live)
		}
	}
}
