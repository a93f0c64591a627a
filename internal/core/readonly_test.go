package core

import (
	"testing"

	"mccuckoo/internal/hashutil"
)

// TestReadOnlyLookupAgreesWithLookup drives both lookup paths over the same
// table states, including deletions and stash pressure, and requires
// identical answers.
func TestReadOnlyLookupAgreesWithLookup(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 256, Seed: 41, StashEnabled: true,
		MaxLoop: 50})
	s := uint64(42)
	for i := 0; i < 5000; i++ {
		r := hashutil.SplitMix64(&s)
		key := r % 900
		switch (r >> 32) % 5 {
		case 0, 1, 2:
			tab.Insert(key, r)
		case 3:
			tab.Delete(key)
		case 4:
			v1, ok1 := tab.LookupReadOnly(key)
			v2, ok2 := tab.Lookup(key)
			if ok1 != ok2 || (ok1 && v1 != v2) {
				t.Fatalf("op %d: read-only (%d,%v) vs lookup (%d,%v)", i, v1, ok1, v2, ok2)
			}
		}
	}
}

func TestBlockedReadOnlyLookupAgrees(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 96, Seed: 43, StashEnabled: true,
		MaxLoop: 50})
	s := uint64(44)
	for i := 0; i < 6000; i++ {
		r := hashutil.SplitMix64(&s)
		key := r % 800
		switch (r >> 32) % 5 {
		case 0, 1, 2:
			tab.Insert(key, r)
		case 3:
			tab.Delete(key)
		case 4:
			v1, ok1 := tab.LookupReadOnly(key)
			v2, ok2 := tab.Lookup(key)
			if ok1 != ok2 || (ok1 && v1 != v2) {
				t.Fatalf("op %d: read-only (%d,%v) vs lookup (%d,%v)", i, v1, ok1, v2, ok2)
			}
		}
	}
}
