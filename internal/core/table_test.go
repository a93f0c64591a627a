package core

import (
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

func fillKeys(seed uint64, n int) []uint64 {
	s := hashutil.Mix64(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
	}
	return keys
}

func mustNew(t *testing.T, cfg Config) *Table {
	t.Helper()
	tab, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func checkInv(t *testing.T, tab *Table) {
	t.Helper()
	if err := tab.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{D: 1, BucketsPerTable: 16},
		{D: 5, BucketsPerTable: 16},
		{BucketsPerTable: 0},
		{BucketsPerTable: 16, Slots: 3}, // single-slot table rejects Slots>1
		{BucketsPerTable: 16, MaxLoop: -1},
		{BucketsPerTable: 16, StashMax: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCounterWidth(t *testing.T) {
	c := Config{D: 3}
	if w := c.counterWidth(); w != 2 {
		t.Errorf("d=3 reset mode width = %d, want 2", w)
	}
	c.Deletion = Tombstone
	if w := c.counterWidth(); w != 3 {
		t.Errorf("d=3 tombstone mode width = %d, want 3", w)
	}
	c = Config{D: 4}
	if w := c.counterWidth(); w != 3 {
		t.Errorf("d=4 width = %d, want 3", w)
	}
}

func TestFirstInsertTakesAllCandidates(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 1, AssumeUniqueKeys: true})
	if out := tab.Insert(42, 100); out.Status != kv.Placed {
		t.Fatalf("status %v", out.Status)
	}
	// Into an empty table, the item must occupy all d = 3 candidates
	// (Fig. 2), with counters all set to 3.
	if got := tab.CopyCount(42); got != 3 {
		t.Fatalf("CopyCount = %d, want 3", got)
	}
	if tab.Copies() != 3 || tab.Len() != 1 {
		t.Fatalf("Copies=%d Len=%d", tab.Copies(), tab.Len())
	}
	if tab.RedundantWrites() != 2 {
		t.Fatalf("RedundantWrites = %d, want 2", tab.RedundantWrites())
	}
	checkInv(t, tab)
}

func TestInsertZeroOffChipReadsAtLowLoad(t *testing.T) {
	// At low load, the counters reveal empty buckets without touching
	// off-chip memory: inserts cost writes but no reads (§IV.B).
	tab := mustNew(t, Config{BucketsPerTable: 1 << 12, Seed: 2, AssumeUniqueKeys: true})
	keys := fillKeys(3, 200)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	if r := tab.Meter().OffChipReads; r != 0 {
		t.Fatalf("low-load inserts cost %d off-chip reads, want 0", r)
	}
	checkInv(t, tab)
}

func TestLookupHitAndMiss(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 256, Seed: 4, AssumeUniqueKeys: true})
	keys := fillKeys(5, 100)
	for _, k := range keys {
		tab.Insert(k, k^0xff)
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k^0xff {
			t.Fatalf("lookup(%#x) = %d,%v", k, v, ok)
		}
	}
	for _, k := range fillKeys(777, 100) {
		if _, ok := tab.Lookup(k); ok {
			t.Fatalf("phantom hit for %#x", k)
		}
	}
}

func TestNegativeLookupZeroReadsAtLowLoad(t *testing.T) {
	// Rule 1: with plenty of empty buckets, a miss is answered purely
	// on-chip, like a Bloom filter (§III.B.2).
	tab := mustNew(t, Config{BucketsPerTable: 1 << 12, Seed: 6, AssumeUniqueKeys: true})
	for _, k := range fillKeys(7, 300) {
		tab.Insert(k, k)
	}
	before := tab.Meter().Snapshot()
	misses := fillKeys(999, 500)
	for _, k := range misses {
		tab.Lookup(k)
	}
	delta := tab.Meter().Snapshot().Sub(before)
	perMiss := float64(delta.OffChipReads) / float64(len(misses))
	if perMiss > 0.05 {
		t.Fatalf("negative lookups cost %.3f off-chip reads each at ~2%% load, want ~0", perMiss)
	}
}

func TestUpsertUpdatesAllCopies(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 8})
	tab.Insert(5, 10)
	if out := tab.Insert(5, 20); out.Status != kv.Updated {
		t.Fatalf("status %v", out.Status)
	}
	if v, _ := tab.Lookup(5); v != 20 {
		t.Fatalf("value %d after update", v)
	}
	if tab.Len() != 1 || tab.CopyCount(5) != 3 {
		t.Fatalf("Len=%d copies=%d", tab.Len(), tab.CopyCount(5))
	}
	checkInv(t, tab)
}

func TestFillTo90PercentWithInvariants(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 2048, Seed: 9, AssumeUniqueKeys: true,
		StashEnabled: true})
	keys := fillKeys(11, tab.Capacity())
	target := int(0.90 * float64(tab.Capacity()))
	for i := 0; i < target; i++ {
		out := tab.Insert(keys[i], keys[i]+1)
		if out.Status == kv.Failed {
			t.Fatalf("insert %d failed with unbounded stash", i)
		}
	}
	checkInv(t, tab)
	for i := 0; i < target; i++ {
		if v, ok := tab.Lookup(keys[i]); !ok || v != keys[i]+1 {
			t.Fatalf("key %d lost at 90%% load (ok=%v)", i, ok)
		}
	}
	if tab.Len() != target {
		t.Fatalf("Len = %d, want %d", tab.Len(), target)
	}
}

func TestDeleteZeroOffChipWrites(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 256, Seed: 12, AssumeUniqueKeys: true})
	keys := fillKeys(13, 200)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	before := tab.Meter().Snapshot()
	for _, k := range keys[:100] {
		if !tab.Delete(k) {
			t.Fatalf("delete %#x failed", k)
		}
	}
	delta := tab.Meter().Snapshot().Sub(before)
	if delta.OffChipWrites != 0 {
		t.Fatalf("deletions cost %d off-chip writes, want 0 (§IV.D)", delta.OffChipWrites)
	}
	for _, k := range keys[:100] {
		if _, ok := tab.Lookup(k); ok {
			t.Fatalf("deleted key %#x still found", k)
		}
	}
	for _, k := range keys[100:] {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("surviving key %#x lost", k)
		}
	}
	checkInv(t, tab)
}

func TestDeletedBucketsAreReused(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 32, Seed: 14, AssumeUniqueKeys: true})
	keys := fillKeys(15, 60)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	for _, k := range keys {
		tab.Delete(k)
	}
	if tab.Len() != 0 || tab.Copies() != 0 {
		t.Fatalf("Len=%d Copies=%d after deleting all", tab.Len(), tab.Copies())
	}
	// The freed buckets must absorb a fresh fill (casual reuse, §III.F).
	fresh := fillKeys(16, 60)
	for _, k := range fresh {
		if out := tab.Insert(k, k); out.Status == kv.Failed {
			t.Fatalf("reinsert failed: freed buckets not reused")
		}
	}
	for _, k := range fresh {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("fresh key %#x lost", k)
		}
	}
	checkInv(t, tab)
}

func TestTombstoneMode(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 128, Seed: 17, AssumeUniqueKeys: true,
		Deletion: Tombstone})
	keys := fillKeys(18, 100)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	for _, k := range keys[:50] {
		if !tab.Delete(k) {
			t.Fatalf("delete %#x failed", k)
		}
	}
	checkInv(t, tab)
	for _, k := range keys[:50] {
		if _, ok := tab.Lookup(k); ok {
			t.Fatalf("tombstoned key %#x still found", k)
		}
	}
	for _, k := range keys[50:] {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("live key %#x lost in tombstone mode", k)
		}
	}
	// Tombstoned buckets must be reusable by insertion.
	fresh := fillKeys(19, 50)
	for _, k := range fresh {
		if out := tab.Insert(k, k); out.Status == kv.Failed {
			t.Fatal("tombstoned buckets not reused")
		}
	}
	checkInv(t, tab)
}

func TestTombstoneKeepsRuleOne(t *testing.T) {
	// In tombstone mode the zero-counter shortcut survives deletions:
	// misses on never-inserted keys stay off-chip-free at low load.
	tab := mustNew(t, Config{BucketsPerTable: 1 << 12, Seed: 20, AssumeUniqueKeys: true,
		Deletion: Tombstone})
	keys := fillKeys(21, 200)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	for _, k := range keys[:100] {
		tab.Delete(k)
	}
	before := tab.Meter().Snapshot()
	misses := fillKeys(4242, 500)
	for _, k := range misses {
		tab.Lookup(k)
	}
	delta := tab.Meter().Snapshot().Sub(before)
	if perMiss := float64(delta.OffChipReads) / float64(len(misses)); perMiss > 0.05 {
		t.Fatalf("tombstone-mode misses cost %.3f reads each, want ~0", perMiss)
	}
}

func TestModelEquivalenceMixedOps(t *testing.T) {
	for _, mode := range []DeletionMode{ResetCounters, Tombstone} {
		tab := mustNew(t, Config{BucketsPerTable: 512, Seed: 23, Deletion: mode,
			StashEnabled: true})
		model := map[uint64]uint64{}
		s := uint64(31)
		for i := 0; i < 8000; i++ {
			r := hashutil.SplitMix64(&s)
			key := r % 1200
			switch (r >> 32) % 4 {
			case 0, 1:
				out := tab.Insert(key, r)
				if out.Status != kv.Failed {
					model[key] = r
				}
			case 2:
				got, ok := tab.Lookup(key)
				want, wok := model[key]
				if ok != wok || (ok && got != want) {
					t.Fatalf("mode %v op %d: lookup(%d) = (%d,%v) want (%d,%v)",
						mode, i, key, got, ok, want, wok)
				}
			case 3:
				_, wok := model[key]
				if got := tab.Delete(key); got != wok {
					t.Fatalf("mode %v op %d: delete(%d) = %v want %v", mode, i, key, got, wok)
				}
				delete(model, key)
			}
		}
		if tab.Len() != len(model) {
			t.Fatalf("mode %v: Len = %d, model %d", mode, tab.Len(), len(model))
		}
		checkInv(t, tab)
	}
}

func TestStashOverflowAndPrescreen(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 25, MaxLoop: 50,
		StashEnabled: true, AssumeUniqueKeys: true})
	keys := fillKeys(26, 200) // >100% load
	stashed := 0
	for _, k := range keys {
		switch tab.Insert(k, k).Status {
		case kv.Stashed:
			stashed++
		case kv.Failed:
			t.Fatal("failed with unbounded stash")
		}
	}
	if stashed == 0 {
		t.Fatal("no stashed items at >100% load")
	}
	// Every key, stashed or not, must be found (no stash false negatives).
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k {
			t.Fatalf("key %#x lost (stash pre-screen false negative?)", k)
		}
	}
	checkInv(t, tab)
}

func TestStashPrescreenSkipsMisses(t *testing.T) {
	// Queries for non-existing items should rarely reach the stash
	// (Table II's "% visits in lookups" column is ~0).
	tab := mustNew(t, Config{BucketsPerTable: 1024, Seed: 27, MaxLoop: 100,
		StashEnabled: true, AssumeUniqueKeys: true})
	keys := fillKeys(28, int(0.92*float64(tab.Capacity())))
	for _, k := range keys {
		tab.Insert(k, k)
	}
	statsBefore := tab.Stats()
	misses := fillKeys(5050, 20000)
	for _, k := range misses {
		tab.Lookup(k)
	}
	probes := tab.Stats().StashProbes - statsBefore.StashProbes
	rate := float64(probes) / float64(len(misses))
	if rate > 0.02 {
		t.Fatalf("stash probed on %.2f%% of negative lookups, want <2%%", rate*100)
	}
}

func TestRedundantWritesTheorem2Bound(t *testing.T) {
	// Theorem 2: proactive redundant writes <= S * (1 + sum_{t=3..d} 1/t),
	// i.e. <= S * 4/3 total redundant for... for d=3 the bound is
	// S*(d-1)/d + S/3*1/2 = S*5/6 of redundant writes.
	tab := mustNew(t, Config{BucketsPerTable: 2048, Seed: 29, AssumeUniqueKeys: true,
		StashEnabled: true})
	s := tab.Capacity()
	keys := fillKeys(30, s)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	bound := float64(s) * (1 + 1.0/3)
	if got := float64(tab.RedundantWrites()); got > bound {
		t.Fatalf("redundant writes %.0f exceed Theorem 2 bound %.0f", got, bound)
	}
	// And the tighter closed form for d=3 from the proof: 5/6 * S.
	if got := float64(tab.RedundantWrites()); got > float64(s)*5.0/6.0+1 {
		t.Fatalf("redundant writes %.0f exceed 5S/6 = %.0f", got, float64(s)*5.0/6.0)
	}
}

func TestDisablePrescreenStillCorrect(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 512, Seed: 31, AssumeUniqueKeys: true,
		DisablePrescreen: true, StashEnabled: true})
	keys := fillKeys(32, int(0.9*float64(tab.Capacity())))
	for _, k := range keys {
		if tab.Insert(k, k).Status == kv.Failed {
			t.Fatal("insert failed")
		}
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k {
			t.Fatalf("key %#x lost with prescreen disabled", k)
		}
	}
	for _, k := range fillKeys(6060, 200) {
		if _, ok := tab.Lookup(k); ok {
			t.Fatal("phantom hit with prescreen disabled")
		}
	}
}

func TestRefreshStashFlags(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 33, MaxLoop: 30,
		StashEnabled: true, AssumeUniqueKeys: true})
	keys := fillKeys(34, 190)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	if tab.StashLen() == 0 {
		t.Skip("no stash pressure with this seed")
	}
	// Delete a third of the items to make room, then refresh.
	for _, k := range keys[:60] {
		tab.Delete(k)
	}
	stashBefore := tab.StashLen()
	moved := tab.RefreshStashFlags()
	if moved == 0 && stashBefore > 0 {
		t.Fatalf("refresh moved nothing despite %d stashed and 60 deletions", stashBefore)
	}
	for _, k := range keys[60:] {
		if v, ok := tab.Lookup(k); !ok || v != k {
			t.Fatalf("key %#x lost across refresh", k)
		}
	}
	checkInv(t, tab)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int64, int) {
		tab := mustNew(t, Config{BucketsPerTable: 256, Seed: 35, AssumeUniqueKeys: true,
			StashEnabled: true})
		for _, k := range fillKeys(36, 700) {
			tab.Insert(k, k)
		}
		return tab.Stats().Kicks, tab.Meter().OffChipReads, tab.Copies()
	}
	k1, r1, c1 := run()
	k2, r2, c2 := run()
	if k1 != k2 || r1 != r2 || c1 != c2 {
		t.Fatalf("runs differ: (%d,%d,%d) vs (%d,%d,%d)", k1, r1, c1, k2, r2, c2)
	}
}

var _ kv.Table = (*Table)(nil)
