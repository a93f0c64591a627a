package core

import (
	"math/rand/v2"
	"testing"

	"mccuckoo/internal/kv"
)

// checkedTable is what the failed-insert tests drive: either table kind.
type checkedTable interface {
	kv.Table
	CheckInvariants() error
	Range(fn func(key, value uint64) bool)
}

// failingConfigs builds small tables of both kinds whose stash is bounded
// or disabled, so inserts fail once the tables fill.
func failingConfigs(t *testing.T) map[string]func() checkedTable {
	return map[string]func() checkedTable{
		"single/stash=2": func() checkedTable {
			return mustNew(t, Config{BucketsPerTable: 16, StashEnabled: true, StashMax: 2, MaxLoop: 8, Seed: 9})
		},
		"single/nostash": func() checkedTable { return mustNew(t, Config{BucketsPerTable: 16, MaxLoop: 8, Seed: 9}) },
		"blocked/stash=2": func() checkedTable {
			return mustNewBlocked(t, Config{BucketsPerTable: 8, StashEnabled: true, StashMax: 2, MaxLoop: 8, Seed: 9})
		},
		"blocked/nostash": func() checkedTable { return mustNewBlocked(t, Config{BucketsPerTable: 8, MaxLoop: 8, Seed: 9}) },
	}
}

// TestModelPastFirstFailure drives each table kind, with a bounded stash
// and with none, against a map well past the point where inserts start to
// fail (§5's "no lost items"). After every operation the invariants hold,
// Len equals the model's size, and every key the model holds is found with
// its value: a key answered Placed, Stashed or Updated is kept, and a new
// key answered Failed is absent.
func TestModelPastFirstFailure(t *testing.T) {
	for name, build := range failingConfigs(t) {
		t.Run(name, func(t *testing.T) {
			tab := build()
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewPCG(5, 7))
			failures := 0
			for op := 0; op < 3000; op++ {
				key := 1 + rng.Uint64N(96)
				switch r := rng.IntN(10); {
				case r < 7:
					_, had := model[key]
					switch st := tab.Insert(key, uint64(op)).Status; {
					case st == kv.Failed && had:
						t.Fatalf("op %d: updating key %d failed", op, key)
					case st == kv.Failed:
						failures++
					default:
						model[key] = uint64(op)
					}
				case r < 9:
					_, had := model[key]
					if tab.Delete(key) != had {
						t.Fatalf("op %d: Delete(%d) disagrees with the model (%v)", op, key, had)
					}
					delete(model, key)
				default:
					tab.Lookup(key)
				}
				if err := tab.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if tab.Len() != len(model) {
					t.Fatalf("op %d: Len %d, model %d", op, tab.Len(), len(model))
				}
				for k := uint64(1); k <= 96; k++ {
					v, ok := tab.Lookup(k)
					if want, in := model[k]; ok != in || v != want {
						t.Fatalf("op %d: key %d reads %d, %v; the model holds %d, %v", op, k, v, ok, want, in)
					}
				}
			}
			if failures < 50 {
				t.Fatalf("%d inserts failed; the test needs a table that fills", failures)
			}
		})
	}
}

// TestFailedInsertUndoCost states what undoing a walk costs: one off-chip
// read and one write per kick. With unique keys (no update scan) and no
// stash, a walk's off-chip traffic is its kicks' one read and one write
// each, so a failed insert of MaxLoop kicks costs 2·MaxLoop reads and
// 2·MaxLoop writes, and leaves every item where it was.
func TestFailedInsertUndoCost(t *testing.T) {
	const maxLoop = 8
	for name, tab := range map[string]checkedTable{
		"single":  mustNew(t, Config{BucketsPerTable: 16, MaxLoop: maxLoop, Seed: 9, AssumeUniqueKeys: true}),
		"blocked": mustNewBlocked(t, Config{BucketsPerTable: 8, MaxLoop: maxLoop, Seed: 9, AssumeUniqueKeys: true}),
	} {
		t.Run(name, func(t *testing.T) {
			failed := 0
			for k := uint64(1); k <= 200; k++ {
				held := map[uint64]uint64{}
				tab.Range(func(key, value uint64) bool { held[key] = value; return true })
				before := tab.Meter().Snapshot()
				out := tab.Insert(k, k)
				if out.Status != kv.Failed {
					continue
				}
				failed++
				cost := tab.Meter().Snapshot().Sub(before)
				if out.Kicks != maxLoop || cost.OffChipReads != 2*maxLoop || cost.OffChipWrites != 2*maxLoop {
					t.Fatalf("key %d: failed after %d kicks at %d off-chip reads and %d writes, want %d kicks, %d and %d",
						k, out.Kicks, cost.OffChipReads, cost.OffChipWrites, maxLoop, 2*maxLoop, 2*maxLoop)
				}
				after := 0
				tab.Range(func(key, value uint64) bool {
					if held[key] != value {
						t.Fatalf("key %d: the failed insert left %d=%d", k, key, value)
					}
					after++
					return true
				})
				if after != len(held) {
					t.Fatalf("key %d: %d items after the failed insert, %d before", k, after, len(held))
				}
			}
			if failed == 0 {
				t.Fatal("no insert failed; the test needs a table that fills")
			}
		})
	}
}
