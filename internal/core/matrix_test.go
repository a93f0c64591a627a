package core

import (
	"fmt"
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// TestConfigMatrixSingle exercises every supported single-slot
// configuration (d × deletion mode × policy × prescreen) through a mixed
// workload against a model, with invariants verified at the end. The paper
// evaluates d = 3 only; the implementation claims d in [2,4] and this test
// backs that claim.
func TestConfigMatrixSingle(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		for _, del := range []DeletionMode{ResetCounters, Tombstone} {
			for _, pol := range []kv.KickPolicy{kv.RandomWalk, kv.MinCounter} {
				for _, noPre := range []bool{false, true} {
					name := fmt.Sprintf("d=%d/%v/%v/noPre=%v", d, del, pol, noPre)
					t.Run(name, func(t *testing.T) {
						cfg := Config{
							D: d, BucketsPerTable: 256, Seed: uint64(d) * 101,
							MaxLoop: 100, Deletion: del, Policy: pol,
							DisablePrescreen: noPre, StashEnabled: true,
						}
						runMatrixWorkload(t, func() (kv.Table, func() error) {
							tab, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							return tab, tab.CheckInvariants
						})
					})
				}
			}
		}
	}
}

// TestConfigMatrixBlocked does the same for the blocked table across
// d × l × deletion × policy. RandomWalk rows keep their historical names;
// MinCounter rows add a policy element.
func TestConfigMatrixBlocked(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		for _, l := range []int{2, 3, 4} {
			for _, del := range []DeletionMode{ResetCounters, Tombstone} {
				for _, pol := range []kv.KickPolicy{kv.RandomWalk, kv.MinCounter} {
					name := fmt.Sprintf("d=%d/l=%d/%v", d, l, del)
					if pol != kv.RandomWalk {
						name += "/" + pol.String()
					}
					t.Run(name, func(t *testing.T) {
						cfg := Config{
							D: d, Slots: l, BucketsPerTable: 96,
							Seed: uint64(d*10 + l), MaxLoop: 100,
							Deletion: del, Policy: pol, StashEnabled: true,
						}
						runMatrixWorkload(t, func() (kv.Table, func() error) {
							tab, err := NewBlocked(cfg)
							if err != nil {
								t.Fatal(err)
							}
							return tab, tab.CheckInvariants
						})
					})
				}
			}
		}
	}
}

// runMatrixWorkload pushes a mixed insert/lookup/delete stream through the
// table and cross-checks against a map model.
func runMatrixWorkload(t *testing.T, build func() (kv.Table, func() error)) {
	t.Helper()
	tab, check := build()
	model := map[uint64]uint64{}
	keySpace := uint64(float64(tab.Capacity()) * 0.8)
	s := hashutil.Mix64(uint64(tab.Capacity()))
	for i := 0; i < 5000; i++ {
		r := hashutil.SplitMix64(&s)
		key := r % keySpace
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
	if err := check(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleHashingTables runs both table kinds with double hashing through
// the mixed-workload model check and a high-load fill.
func TestDoubleHashingTables(t *testing.T) {
	cfg := Config{D: 3, BucketsPerTable: 512, Seed: 301, MaxLoop: 200,
		DoubleHashing: true, StashEnabled: true}
	runMatrixWorkload(t, func() (kv.Table, func() error) {
		tab, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tab, tab.CheckInvariants
	})
	bcfg := cfg
	bcfg.Slots = 3
	bcfg.BucketsPerTable = 170
	runMatrixWorkload(t, func() (kv.Table, func() error) {
		tab, err := NewBlocked(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		return tab, tab.CheckInvariants
	})
	// Double hashing must sustain the usual loads (the [21] claim).
	tab := mustNew(t, Config{BucketsPerTable: 2048, Seed: 302, DoubleHashing: true,
		AssumeUniqueKeys: true, StashEnabled: true})
	keys := fillKeys(303, int(0.90*float64(tab.Capacity())))
	for _, k := range keys {
		if tab.Insert(k, k).Status == kv.Failed {
			t.Fatal("double-hashed fill failed")
		}
	}
	if stashed := tab.StashLen(); stashed > len(keys)/50 {
		t.Errorf("double hashing stashed %d of %d at 90%% load", stashed, len(keys))
	}
	for _, k := range keys {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatal("key lost under double hashing")
		}
	}
	// Snapshot round-trip preserves the double-hashing family.
	var buf writerBuffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:200] {
		if _, ok := got.Lookup(k); !ok {
			t.Fatal("key lost across double-hashed snapshot")
		}
	}
}
