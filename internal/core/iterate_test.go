package core

import (
	"fmt"
	"slices"
	"testing"

	"mccuckoo/internal/kv"
)

func TestRangeVisitsEachItemOnce(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 128, Seed: 101, MaxLoop: 50,
		StashEnabled: true})
	keys := fillKeys(102, 360) // includes stash pressure
	want := map[uint64]uint64{}
	for _, k := range keys {
		if tab.Insert(k, k+9).Status != kv.Failed {
			want[k] = k + 9
		}
	}
	for _, k := range keys[:50] {
		tab.Delete(k)
		delete(want, k)
	}
	got := map[uint64]uint64{}
	tab.Range(func(k, v uint64) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("key %#x visited twice", k)
		}
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d items, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %#x: value %d, want %d", k, got[k], v)
		}
	}
	// Early termination.
	visits := 0
	tab.Range(func(k, v uint64) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Fatalf("early stop visited %d", visits)
	}
}

func TestBlockedRangeVisitsEachItemOnce(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 32, Seed: 103, MaxLoop: 50,
		StashEnabled: true})
	keys := fillKeys(104, 290)
	want := map[uint64]uint64{}
	for _, k := range keys {
		if tab.Insert(k, k^5).Status != kv.Failed {
			want[k] = k ^ 5
		}
	}
	for _, k := range keys[:40] {
		tab.Delete(k)
		delete(want, k)
	}
	got := map[uint64]uint64{}
	tab.Range(func(k, v uint64) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("key %#x visited twice", k)
		}
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d items, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %#x: value %d, want %d", k, got[k], v)
		}
	}
}

func TestCopyHistogram(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 512, Seed: 105, AssumeUniqueKeys: true})
	// Empty table.
	for i, c := range tab.CopyHistogram() {
		if c != 0 {
			t.Fatalf("empty table histogram[%d] = %d", i, c)
		}
	}
	// First item into an empty table: exactly one 3-copy item.
	tab.Insert(1, 1)
	h := tab.CopyHistogram()
	if h[3] != 1 || h[1] != 0 || h[2] != 0 {
		t.Fatalf("histogram after first insert: %v", h)
	}
	// Fill to 85%: the histogram must account for every item, and sum of
	// i*hist[i] must equal Copies().
	keys := fillKeys(106, int(0.85*float64(tab.Capacity())))
	for _, k := range keys {
		tab.Insert(k, k)
	}
	h = tab.CopyHistogram()
	items, copies := 0, 0
	for i := 1; i <= 3; i++ {
		items += h[i]
		copies += i * h[i]
	}
	if items != tab.Len()-tab.StashLen() {
		t.Fatalf("histogram items %d, table %d", items, tab.Len())
	}
	if copies != tab.Copies() {
		t.Fatalf("histogram copies %d, Copies() %d", copies, tab.Copies())
	}
	// At 85% load most items must be down to a single copy.
	if h[1] < items/2 {
		t.Errorf("only %d of %d items are sole copies at 85%% load", h[1], items)
	}

	btab := mustNewBlocked(t, Config{BucketsPerTable: 64, Seed: 107, AssumeUniqueKeys: true})
	btab.Insert(1, 1)
	if bh := btab.CopyHistogram(); bh[3] != 1 {
		t.Fatalf("blocked histogram after first insert: %v", bh)
	}
}

// copyHistogramByKey is CopyHistogram's reference: it counts each live key
// once, at the counter of the first of its cells met.
func copyHistogramByKey(s *tableState) []int {
	hist := make([]int, s.cfg.D+1)
	seen := make(map[uint64]bool, s.size)
	for idx, cell := range s.cells {
		c := s.counters.Get(idx)
		if s.isFree(c) || c > uint64(s.cfg.D) || seen[cell.Key] {
			continue
		}
		seen[cell.Key] = true
		hist[c]++
	}
	return hist
}

// TestCopyHistogramMatchesKeyCount checks the counter-only histogram against
// the per-key count on both kinds and both deletion modes, every 50 ops of
// a fill to 95% of capacity that deletes an earlier key after every third
// insert, so items lose copies to kicks and cells are freed and reused.
func TestCopyHistogramMatchesKeyCount(t *testing.T) {
	type table interface {
		kv.Table
		CopyHistogram() []int
		state() *tableState
	}
	for _, mode := range []DeletionMode{ResetCounters, Tombstone} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := Config{BucketsPerTable: 128, Seed: seed, MaxLoop: 100, StashEnabled: true, Deletion: mode}
			tables := []table{mustNew(t, cfg)}
			cfg.BucketsPerTable = 48
			tables = append(tables, mustNewBlocked(t, cfg))
			for _, tab := range tables {
				name := fmt.Sprintf("%T/%v/seed=%d", tab, mode, seed)
				keys := fillKeys(seed+10, int(0.95*float64(tab.Capacity())))
				for i, k := range keys {
					tab.Insert(k, k)
					if i%3 == 2 {
						tab.Delete(keys[i/2])
					}
					if i%50 == 49 || i == len(keys)-1 {
						got, want := tab.CopyHistogram(), copyHistogramByKey(tab.state())
						if !slices.Equal(got, want) {
							t.Fatalf("%s after %d inserts: histogram %v, per-key count %v", name, i+1, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCopyHistogramAllocatesOnlyResult holds a scrape's histogram to one
// allocation, the result, however many items the table holds.
func TestCopyHistogramAllocatesOnlyResult(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 1024, Seed: 9})
	for _, k := range fillKeys(8, 2000) {
		tab.Insert(k, k)
	}
	if allocs := testing.AllocsPerRun(10, func() { tab.CopyHistogram() }); allocs != 1 {
		t.Errorf("CopyHistogram made %v allocations, want 1", allocs)
	}
}
