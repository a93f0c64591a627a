package core

import (
	"math"
	"testing"

	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

func TestGrowRecoversAllItems(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 128, Seed: 71, AssumeUniqueKeys: true,
		StashEnabled: true, MaxLoop: 50})
	keys := fillKeys(72, 370) // ~96% load: guarantees stash pressure
	for _, k := range keys {
		tab.Insert(k, k*3)
	}
	stashedBefore := tab.StashLen()
	if err := tab.Grow(2); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if tab.Capacity() != 3*256 {
		t.Fatalf("capacity after grow = %d", tab.Capacity())
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k*3 {
			t.Fatalf("key %#x lost across Grow (ok=%v)", k, ok)
		}
	}
	if tab.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(keys))
	}
	// At half the load, the grown table should have absorbed the stash.
	if stashedBefore > 0 && tab.StashLen() >= stashedBefore {
		t.Errorf("stash did not shrink across Grow: %d -> %d", stashedBefore, tab.StashLen())
	}
	checkInv(t, tab)
}

func TestGrowValidation(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 16, Seed: 73})
	if err := tab.Grow(0.5); err == nil {
		t.Error("shrinking factor accepted")
	}
	btab := mustNewBlocked(t, Config{BucketsPerTable: 16, Seed: 73})
	if err := btab.Grow(0); err == nil {
		t.Error("zero factor accepted (blocked)")
	}
}

func TestGrowInPlaceReabsorbsStash(t *testing.T) {
	// Grow(1) = rehash at the same size with fresh hash functions; after
	// deletions freed space, it should pull stashed items back in.
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 75, AssumeUniqueKeys: true,
		StashEnabled: true, MaxLoop: 30})
	keys := fillKeys(76, 190)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	if tab.StashLen() == 0 {
		t.Skip("no stash pressure with this seed")
	}
	for _, k := range keys[:80] {
		tab.Delete(k)
	}
	if err := tab.Grow(1); err != nil {
		t.Fatalf("Grow(1): %v", err)
	}
	if tab.StashLen() != 0 {
		t.Errorf("stash still holds %d items after in-place rehash at %.0f%% load",
			tab.StashLen(), tab.LoadRatio()*100)
	}
	for _, k := range keys[80:] {
		if v, ok := tab.Lookup(k); !ok || v != k {
			t.Fatalf("key %#x lost across in-place rehash", k)
		}
	}
	checkInv(t, tab)
}

func TestGrowAfterDeletionsRestoresRuleOne(t *testing.T) {
	// A rebuild resets deletedAny: the zero-counter shortcut works again.
	tab := mustNew(t, Config{BucketsPerTable: 1 << 10, Seed: 77, AssumeUniqueKeys: true})
	keys := fillKeys(78, 200)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	tab.Delete(keys[0])
	if err := tab.Grow(1); err != nil {
		t.Fatal(err)
	}
	before := tab.Meter().Snapshot()
	misses := fillKeys(7979, 300)
	for _, k := range misses {
		tab.Lookup(k)
	}
	delta := tab.Meter().Snapshot().Sub(before)
	if perMiss := float64(delta.OffChipReads) / float64(len(misses)); perMiss > 0.05 {
		t.Errorf("misses cost %.3f reads after rebuild, want ~0 (rule 1 restored)", perMiss)
	}
}

func TestBlockedGrowRecoversAllItems(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 64, Seed: 79, AssumeUniqueKeys: true,
		StashEnabled: true, MaxLoop: 100})
	keys := fillKeys(80, tab.Capacity()) // 100% load
	for _, k := range keys {
		if tab.Insert(k, k+5).Status == kv.Failed {
			t.Fatal("fill failed")
		}
	}
	if err := tab.Grow(1.5); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k+5 {
			t.Fatalf("key %#x lost across blocked Grow", k)
		}
	}
	checkBlockedInv(t, tab)
}

func TestGrowChargesTraffic(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 81, AssumeUniqueKeys: true,
		StashEnabled: true})
	for _, k := range fillKeys(82, 100) {
		tab.Insert(k, k)
	}
	before := tab.Meter().Snapshot()
	if err := tab.Grow(2); err != nil {
		t.Fatal(err)
	}
	delta := tab.Meter().Snapshot().Sub(before)
	if delta.OffChipReads < int64(3*64) {
		t.Errorf("Grow charged %d reads, want at least the full-table read (192)", delta.OffChipReads)
	}
	if delta.OffChipWrites < 100 {
		t.Errorf("Grow charged %d writes, want at least one per item", delta.OffChipWrites)
	}
}

// A Grow that cannot place every item fails and leaves the table as it
// was: every item still found with its value, the invariants intact. Only
// the meter and the stats keep what the attempt cost. Grow used to rebuild
// the arrays empty and stop at the first item that did not fit, losing it
// and every item after it.
func TestFailedGrowKeepsTable(t *testing.T) {
	const mul = 0x9e3779b97f4a7c15
	fill := func(tab interface {
		Insert(key, value uint64) kv.Outcome
	}) {
		for k := uint64(1); k <= 200; k++ {
			tab.Insert(k*mul, k)
		}
	}
	check := func(t *testing.T, tab interface {
		Len() int
		StashLen() int
		Lookup(key uint64) (uint64, bool)
		CheckInvariants() error
	}, n, stashed int) {
		t.Helper()
		if tab.Len() != n || tab.StashLen() != stashed {
			t.Fatalf("Len %d, StashLen %d after the failed grow, want %d and %d",
				tab.Len(), tab.StashLen(), n, stashed)
		}
		found := 0
		for k := uint64(1); k <= 200; k++ {
			if v, ok := tab.Lookup(k * mul); ok {
				if v != k {
					t.Fatalf("key %d reads %d", k, v)
				}
				found++
			}
		}
		if found != n {
			t.Fatalf("%d keys found, Len %d", found, n)
		}
		if err := tab.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Five single-slot tables and four blocked ones (whose slot hints must
	// come back too), each full past what a rehash can place. The blocked
	// ones walk at most 2 kicks, short enough that each rehash fails.
	type growable interface {
		Insert(key, value uint64) kv.Outcome
		Len() int
		StashLen() int
		Lookup(key uint64) (uint64, bool)
		CheckInvariants() error
		Meter() *memmodel.Meter
		Grow(growFactor float64) error
	}
	var tables []growable
	for seed := uint64(1); seed <= 5; seed++ {
		tables = append(tables, mustNew(t, Config{BucketsPerTable: 64, StashEnabled: true,
			StashMax: 2, MaxLoop: 4, Seed: seed}))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		tables = append(tables, mustNewBlocked(t, Config{BucketsPerTable: 16, StashEnabled: true,
			StashMax: 2, MaxLoop: 2, Seed: seed}))
	}
	for i, tab := range tables {
		fill(tab)
		n, stashed, before := tab.Len(), tab.StashLen(), tab.Meter().Snapshot()
		if err := tab.Grow(1); err == nil {
			t.Fatalf("table %d: Grow(1) placed every item; the test needs one that fails", i)
		}
		check(t, tab, n, stashed)
		if cost := tab.Meter().Snapshot().Sub(before); cost.OffChipReads < 3*16 || cost.OffChipWrites == 0 {
			t.Errorf("table %d: the failed grow charged %+v, want its reads and writes kept", i, cost)
		}
	}
	// A factor Grow rejects leaves the table and its meter untouched, the
	// stash included.
	tab := mustNew(t, Config{BucketsPerTable: 64, StashEnabled: true, MaxLoop: 4, Seed: 1})
	fill(tab)
	n, stashed := tab.Len(), tab.StashLen()
	if stashed == 0 {
		t.Fatal("the test needs stashed items")
	}
	for _, f := range []float64{math.Inf(1), math.NaN(), math.MaxInt64} {
		before := tab.Meter().Snapshot()
		if err := tab.Grow(f); err == nil {
			t.Fatalf("Grow(%g) accepted", f)
		}
		if !tab.Meter().Snapshot().Same(before) {
			t.Fatalf("the rejected Grow(%g) charged the meter", f)
		}
		check(t, tab, n, stashed)
	}
}
