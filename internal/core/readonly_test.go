package core

import (
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// lookupPaths is the part of both table kinds the read-path agreement tests
// drive.
type lookupPaths interface {
	kv.Table
	LookupReadOnlyTraced(key uint64) (value uint64, ok, stashProbed bool, offReads int64)
}

// checkReadPathAgrees runs the lock layer's read path and then Lookup on key
// and fails unless the read path left the table's meter and stats exactly
// as they were, and both answered alike: the same value, the read path's
// off-chip count equal to what Lookup charged the meter, and its
// stash-probed result equal to Lookup's StashProbe delta. It returns that
// result.
func checkReadPathAgrees(t *testing.T, op int, tab lookupPaths, key uint64) (stashProbed bool) {
	t.Helper()
	meter, stats := tab.Meter().Snapshot(), tab.Stats()
	v1, ok1, probed, off := tab.LookupReadOnlyTraced(key)
	if m := tab.Meter().Snapshot(); !m.Same(meter) {
		t.Fatalf("op %d: read path moved the meter: %+v -> %+v", op, meter, m)
	}
	if st := tab.Stats(); st != stats {
		t.Fatalf("op %d: read path moved the stats: %+v -> %+v", op, stats, st)
	}
	v2, ok2 := tab.Lookup(key)
	if ok1 != ok2 || (ok1 && v1 != v2) {
		t.Fatalf("op %d: read-only (%d,%v) vs lookup (%d,%v)", op, v1, ok1, v2, ok2)
	}
	if charged := tab.Meter().Snapshot().Sub(meter).OffChipReads; off != charged {
		t.Fatalf("op %d: read-only reported %d off-chip reads, Lookup charged %d", op, off, charged)
	}
	if delta := tab.Stats().StashProbe - stats.StashProbe; probed != (delta == 1) {
		t.Fatalf("op %d: read-only stash-probed %v, Lookup's StashProbe delta %d", op, probed, delta)
	}
	return probed
}

// TestReadOnlyLookupAgreesWithLookup drives both lookup paths over the same
// table states, including deletions and stash pressure (MaxLoop 4, so some
// lookups must probe the stash), under the default counter treatment,
// tombstones, and with the counter pre-screen off (the §IV.F ablation); see
// checkReadPathAgrees.
func TestReadOnlyLookupAgreesWithLookup(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"tombstone", Config{Deletion: Tombstone}},
		{"no-prescreen", Config{DisablePrescreen: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.BucketsPerTable, cfg.Seed, cfg.StashEnabled, cfg.MaxLoop = 256, 41, true, 4
			tab := mustNew(t, cfg)
			s := uint64(42)
			probes := 0
			for i := 0; i < 5000; i++ {
				r := hashutil.SplitMix64(&s)
				key := r % 900
				switch (r >> 32) % 5 {
				case 0, 1, 2:
					tab.Insert(key, r)
				case 3:
					tab.Delete(key)
				case 4:
					if checkReadPathAgrees(t, i, tab, key) {
						probes++
					}
				}
			}
			if probes == 0 {
				t.Fatal("no lookup probed the stash: the sequence lost its stash pressure")
			}
		})
	}
}

func TestBlockedReadOnlyLookupAgrees(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"tombstone", Config{Deletion: Tombstone}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.BucketsPerTable, cfg.Seed, cfg.StashEnabled, cfg.MaxLoop = 96, 43, true, 4
			tab := mustNewBlocked(t, cfg)
			s := uint64(44)
			probes := 0
			for i := 0; i < 6000; i++ {
				r := hashutil.SplitMix64(&s)
				key := r % 1200
				switch (r >> 32) % 5 {
				case 0, 1, 2:
					tab.Insert(key, r)
				case 3:
					tab.Delete(key)
				case 4:
					if checkReadPathAgrees(t, i, tab, key) {
						probes++
					}
				}
			}
			if probes == 0 {
				t.Fatal("no lookup probed the stash: the sequence lost its stash pressure")
			}
		})
	}
}
