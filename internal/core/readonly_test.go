package core

import (
	"testing"

	"mccuckoo/internal/hashutil"
)

// TestReadOnlyLookupAgreesWithLookup drives both lookup paths over the same
// table states, including deletions and stash pressure, and requires
// identical answers and an off-chip count equal to what Lookup charges the
// meter — under the default counter treatment, tombstones, and with the
// counter pre-screen off (the §IV.F ablation).
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
			cfg.BucketsPerTable, cfg.Seed, cfg.StashEnabled, cfg.MaxLoop = 256, 41, true, 50
			tab := mustNew(t, cfg)
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
					v1, ok1, off := tab.LookupReadOnlyTraced(key)
					before := tab.Meter().Snapshot().OffChipReads
					v2, ok2 := tab.Lookup(key)
					charged := tab.Meter().Snapshot().OffChipReads - before
					if ok1 != ok2 || (ok1 && v1 != v2) {
						t.Fatalf("op %d: read-only (%d,%v) vs lookup (%d,%v)", i, v1, ok1, v2, ok2)
					}
					if off != charged {
						t.Fatalf("op %d: read-only reported %d off-chip reads, Lookup charged %d", i, off, charged)
					}
				}
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
			cfg.BucketsPerTable, cfg.Seed, cfg.StashEnabled, cfg.MaxLoop = 96, 43, true, 50
			tab := mustNewBlocked(t, cfg)
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
					v1, ok1, off := tab.LookupReadOnlyTraced(key)
					before := tab.Meter().Snapshot().OffChipReads
					v2, ok2 := tab.Lookup(key)
					charged := tab.Meter().Snapshot().OffChipReads - before
					if ok1 != ok2 || (ok1 && v1 != v2) {
						t.Fatalf("op %d: read-only (%d,%v) vs lookup (%d,%v)", i, v1, ok1, v2, ok2)
					}
					if off != charged {
						t.Fatalf("op %d: read-only reported %d off-chip reads, Lookup charged %d", i, off, charged)
					}
				}
			}
		})
	}
}
