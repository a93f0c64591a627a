package cuckoo

import (
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// fillKeys returns n distinct pseudo-random keys.
func fillKeys(seed uint64, n int) []uint64 {
	s := hashutil.Mix64(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
	}
	return keys
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{D: 1, BucketsPerTable: 16},
		{D: 9, BucketsPerTable: 16},
		{BucketsPerTable: 0},
		{BucketsPerTable: 16, Slots: 9},
		{BucketsPerTable: 16, MaxLoop: -1},
		{BucketsPerTable: 16, StashMax: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	tab, err := New(Config{BucketsPerTable: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tab.cfg.D != 3 || tab.cfg.Slots != 1 || tab.cfg.MaxLoop != 500 {
		t.Errorf("defaults not applied: %+v", tab.cfg)
	}
}

func TestInsertLookupDeleteBasic(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out := tab.Insert(42, 100); out.Status != kv.Placed {
		t.Fatalf("insert status %v", out.Status)
	}
	if v, ok := tab.Lookup(42); !ok || v != 100 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	if _, ok := tab.Lookup(43); ok {
		t.Fatal("phantom hit")
	}
	if out := tab.Insert(42, 200); out.Status != kv.Updated {
		t.Fatalf("update status %v", out.Status)
	}
	if v, _ := tab.Lookup(42); v != 200 {
		t.Fatalf("value %d after update", v)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if !tab.Delete(42) {
		t.Fatal("delete failed")
	}
	if tab.Delete(42) {
		t.Fatal("double delete")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after delete", tab.Len())
	}
}

// fillToLoad inserts keys until the target load ratio; it fails the test on
// any insertion failure.
func fillToLoad(t *testing.T, tab kv.Table, keys []uint64, load float64) []uint64 {
	t.Helper()
	want := int(load * float64(tab.Capacity()))
	if want > len(keys) {
		t.Fatalf("need %d keys, have %d", want, len(keys))
	}
	for i := 0; i < want; i++ {
		out := tab.Insert(keys[i], keys[i]+1)
		if out.Status == kv.Failed {
			t.Fatalf("insert %d/%d failed at load %.3f", i, want, tab.LoadRatio())
		}
	}
	return keys[:want]
}

func TestTernaryCuckooReaches85Percent(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 4096, Seed: 7, AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(7, tab.Capacity())
	inserted := fillToLoad(t, tab, keys, 0.85)
	for _, k := range inserted {
		if v, ok := tab.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost (ok=%v v=%d)", k, ok, v)
		}
	}
}

func TestBCHTReaches95Percent(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 2048, Slots: 3, Seed: 7, AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(11, tab.Capacity())
	inserted := fillToLoad(t, tab, keys, 0.95)
	for _, k := range inserted {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("key %#x lost", k)
		}
	}
}

func TestModelEquivalenceMixedOps(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 512, Seed: 3, StashEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	s := uint64(99)
	for i := 0; i < 6000; i++ {
		r := hashutil.SplitMix64(&s)
		key := r % 1024 // small key space forces collisions and updates
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
				t.Fatalf("op %d: lookup(%d) = %d,%v want %d,%v", i, key, got, ok, want, wok)
			}
		case 3:
			if got, want := tab.Delete(key), func() bool { _, ok := model[key]; return ok }(); got != want {
				t.Fatalf("op %d: delete(%d) = %v want %v", i, key, got, want)
			}
			delete(model, key)
		}
	}
	if tab.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tab.Len(), len(model))
	}
}

func TestStashCatchesOverflow(t *testing.T) {
	// A tiny table overfilled far beyond its capacity margin must shunt
	// items to the stash rather than fail.
	tab, err := New(Config{BucketsPerTable: 32, Seed: 5, MaxLoop: 50,
		StashEnabled: true, AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(5, 96)
	stashed := 0
	for _, k := range keys {
		out := tab.Insert(k, k)
		switch out.Status {
		case kv.Stashed:
			stashed++
		case kv.Failed:
			t.Fatal("failed despite unbounded stash")
		}
	}
	if stashed == 0 {
		t.Fatal("expected some stashed items at 100% load")
	}
	if tab.StashLen() != stashed {
		t.Fatalf("StashLen = %d, observed %d stash outcomes", tab.StashLen(), stashed)
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k {
			t.Fatalf("key %#x lost (stashed items must stay findable)", k)
		}
	}
	if tab.Stats().StashProbes == 0 {
		t.Fatal("stash never probed")
	}
}

func TestBoundedStashFails(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 16, Seed: 5, MaxLoop: 20,
		StashEnabled: true, StashMax: 4, AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(21, 80)
	failed := false
	for _, k := range keys {
		if tab.Insert(k, k).Status == kv.Failed {
			failed = true
		}
	}
	if !failed {
		t.Fatal("bounded stash never reported failure at 160% load")
	}
	if tab.StashLen() > 4 {
		t.Fatalf("stash grew to %d despite cap 4", tab.StashLen())
	}
}

func TestRehashRecoversAllItems(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 64, Seed: 9, MaxLoop: 30,
		StashEnabled: true, AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(13, 170)
	for _, k := range keys {
		tab.Insert(k, k*3)
	}
	if err := tab.Rehash(2); err != nil {
		t.Fatalf("Rehash: %v", err)
	}
	if tab.Capacity() != 3*128*1 {
		t.Fatalf("capacity after grow = %d", tab.Capacity())
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k*3 {
			t.Fatalf("key %#x lost after rehash", k)
		}
	}
	if err := tab.Rehash(0.5); err == nil {
		t.Fatal("shrinking growFactor accepted")
	}
}

func TestMeterLookupMissCostsDReads(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 64, Seed: 1, AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	before := tab.Meter().Snapshot()
	tab.Lookup(12345)
	delta := tab.Meter().Snapshot().Sub(before)
	if delta.OffChipReads != 3 {
		t.Fatalf("miss cost %d reads, want 3", delta.OffChipReads)
	}
	if delta.OffChipWrites != 0 {
		t.Fatalf("miss cost %d writes", delta.OffChipWrites)
	}
}

func TestMeterDeleteOneWrite(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 64, Seed: 1, AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	tab.Insert(5, 5)
	before := tab.Meter().Snapshot()
	if !tab.Delete(5) {
		t.Fatal("delete failed")
	}
	delta := tab.Meter().Snapshot().Sub(before)
	if delta.OffChipWrites != 1 {
		t.Fatalf("delete cost %d writes, want exactly 1 (§IV.D)", delta.OffChipWrites)
	}
}

func TestMinCounterPolicyFills(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 2048, Seed: 17, Policy: kv.MinCounter,
		AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(23, tab.Capacity())
	inserted := fillToLoad(t, tab, keys, 0.85)
	for _, k := range inserted {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("key %#x lost under MinCounter", k)
		}
	}
	if tab.Meter().OnChipReads == 0 {
		t.Fatal("MinCounter policy performed no on-chip reads")
	}
}

func TestKicksReportedInOutcome(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 128, Seed: 2, AssumeUniqueKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(31, 340)
	total := 0
	for _, k := range keys {
		out := tab.Insert(k, k)
		if out.Status == kv.Failed {
			break
		}
		total += out.Kicks
	}
	if total == 0 {
		t.Fatal("no kicks at ~88% load; kick accounting broken")
	}
	if int64(total) != tab.Stats().Kicks {
		t.Fatalf("outcome kicks %d != stats kicks %d", total, tab.Stats().Kicks)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		tab, err := New(Config{BucketsPerTable: 256, Seed: 4, AssumeUniqueKeys: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range fillKeys(55, 600) {
			tab.Insert(k, k)
		}
		return tab.Stats().Kicks, tab.Meter().OffChipReads
	}
	k1, r1 := run()
	k2, r2 := run()
	if k1 != k2 || r1 != r2 {
		t.Fatalf("runs differ: kicks %d vs %d, reads %d vs %d", k1, k2, r1, r2)
	}
}

var _ kv.Table = (*Table)(nil)

func TestBloomPrescreenCorrectness(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 512, Seed: 51, StashEnabled: true,
		BloomM: 3 * 512 * 4, BloomK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.OnChipBytes() == 0 {
		t.Fatal("Bloom prescreen reports no on-chip memory")
	}
	model := map[uint64]uint64{}
	s := hashutil.Mix64(53)
	for i := 0; i < 8000; i++ {
		r := hashutil.SplitMix64(&s)
		key := r % 1200
		switch (r >> 32) % 4 {
		case 0, 1:
			if tab.Insert(key, r).Status != kv.Failed {
				model[key] = r
			}
		case 2:
			got, ok := tab.Lookup(key)
			want, wok := model[key]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: lookup(%d) = (%d,%v), want (%d,%v)", i, key, got, ok, want, wok)
			}
		case 3:
			_, wok := model[key]
			if got := tab.Delete(key); got != wok {
				t.Fatalf("op %d: delete(%d) = %v, want %v", i, key, got, wok)
			}
			delete(model, key)
		}
	}
	if tab.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", tab.Len(), len(model))
	}
}

func TestBloomPrescreenFiltersMisses(t *testing.T) {
	// With ~8 cells per item the CBF should answer most negative lookups
	// on-chip, like McCuckoo's counters do.
	tab, err := New(Config{BucketsPerTable: 2048, Seed: 55, StashEnabled: true,
		AssumeUniqueKeys: true, BloomM: 3 * 2048 * 4, BloomK: 3})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(57, tab.Capacity()/2)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	before := tab.Meter().Snapshot()
	misses := fillKeys(5858, 5000)
	for _, k := range misses {
		if _, ok := tab.Lookup(k); ok {
			t.Fatal("phantom hit")
		}
	}
	delta := tab.Meter().Snapshot().Sub(before)
	perMiss := float64(delta.OffChipReads) / float64(len(misses))
	if perMiss > 0.5 {
		t.Fatalf("CBF-screened misses cost %.3f off-chip reads, want <0.5", perMiss)
	}
	if delta.OnChipReads == 0 {
		t.Fatal("filter queries not charged on-chip")
	}
}

func TestBloomRehashRebuildsFilter(t *testing.T) {
	tab, err := New(Config{BucketsPerTable: 64, Seed: 59, MaxLoop: 30,
		StashEnabled: true, BloomM: 1024, BloomK: 3})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillKeys(61, 150)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	if err := tab.Rehash(2); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k {
			t.Fatalf("key %#x lost across rehash with filter", k)
		}
	}
	// Deleting every key must work (filter counts were rebuilt, not
	// doubled).
	for _, k := range keys {
		if !tab.Delete(k) {
			t.Fatalf("delete %#x failed after rehash", k)
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d", tab.Len())
	}
}
