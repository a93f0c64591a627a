package core_test

import (
	"bytes"
	"errors"
	"testing"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/core"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/shard"
)

// faultTable is what the matrix drives: a corruptible table with repair and
// invariant checking. Both core table kinds satisfy it.
type faultTable interface {
	Port
	kv.Table
	Repair() core.RepairReport
	CheckInvariants() error
}

type combo struct {
	name    string
	blocked bool
	cfg     core.Config
}

func combos() []combo {
	return []combo{
		{"single", false, core.Config{BucketsPerTable: 96, Seed: 101, MaxLoop: 100, StashEnabled: true}},
		{"single-tombstone", false, core.Config{BucketsPerTable: 96, Seed: 102, MaxLoop: 100, StashEnabled: true, Deletion: core.Tombstone}},
		{"single-mincounter", false, core.Config{BucketsPerTable: 96, Seed: 103, MaxLoop: 100, StashEnabled: true, Policy: kv.MinCounter}},
		{"blocked", true, core.Config{BucketsPerTable: 24, Seed: 104, MaxLoop: 100, StashEnabled: true}},
		{"blocked-tombstone", true, core.Config{BucketsPerTable: 24, Seed: 105, MaxLoop: 100, StashEnabled: true, Deletion: core.Tombstone}},
	}
}

func build(t *testing.T, c combo, load float64) (faultTable, map[uint64]uint64) {
	t.Helper()
	var tab faultTable
	var err error
	if c.blocked {
		tab, err = core.NewBlocked(c.cfg)
	} else {
		tab, err = core.New(c.cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	n := int(load * float64(tab.Capacity()))
	expect := make(map[uint64]uint64, n)
	k := c.cfg.Seed*0x9e3779b97f4a7c15 | 1
	for i := 0; i < n; i++ {
		k = k*6364136223846793005 + 1442695040888963407
		key := k | 1 // never key 0
		if tab.Insert(key, key^0xabc).Status != kv.Failed {
			expect[key] = key ^ 0xabc
		}
	}
	return tab, expect
}

// Every on-chip fault class, injected repeatedly on never-deleted tables of
// every configuration, must be fully healed by Repair: invariants hold,
// every accepted key resolves to its value, and a second Repair is a no-op.
func TestOnChipFaultMatrixHealed(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			for trial := uint64(0); trial < 8; trial++ {
				tab, expect := build(t, c, 0.80)
				inj := NewInjector(1000*c.cfg.Seed + trial)
				var faults []Fault
				for i := 0; i < 4; i++ {
					faults = append(faults,
						inj.FlipCounterBit(tab),
						inj.CorruptCounter(tab),
						inj.ZeroCounter(tab),
						inj.TombstoneCounter(tab),
						inj.ClearStashFlag(tab),
						inj.SetStashFlag(tab),
						inj.AlienKey(tab),
						inj.DivergeValue(tab),
					)
				}
				rep := tab.Repair()
				if err := tab.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: invariants after repair: %v\nfaults: %+v\nreport: %v",
						trial, err, faults, rep)
				}
				for k, v := range expect {
					got, ok := tab.Lookup(k)
					if !ok || got != v {
						t.Fatalf("trial %d: key %#x = (%d,%v), want (%d,true)\nfaults: %+v",
							trial, k, got, ok, v, faults)
					}
				}
				if rep2 := tab.Repair(); rep2.Any() {
					t.Fatalf("trial %d: second repair not a no-op: %v", trial, rep2)
				}
			}
		})
	}
}

// CheckInvariants is every load's check, so it must catch the on-chip fault
// only the copy count sees: the copies of one multi-copy key stamped with
// another in-range count, which keeps the size, the live copy total and the
// copies' agreement on their counter.
func TestInvariantsCatchMiscountedCopies(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			for trial := uint64(0); trial < 4; trial++ {
				tab, _ := build(t, c, 0.80)
				inj := NewInjector(3000*c.cfg.Seed + trial)
				cells := inj.multiCopyCells(tab, 2)
				if len(cells) == 0 {
					t.Fatal("no key with two copies at 80% load")
				}
				key := tab.FaultCellKey(cells[inj.intn(len(cells))])
				var copies []int
				for _, i := range cells {
					if tab.FaultCellKey(i) == key {
						copies = append(copies, i)
					}
				}
				wrong := uint64(len(copies))%uint64(tab.FaultArity()) + 1
				for _, i := range copies {
					tab.FaultSetCounter(i, wrong)
				}
				if err := tab.CheckInvariants(); err == nil {
					t.Fatalf("trial %d: key %#x's %d copies, each counting %d, pass CheckInvariants",
						trial, key, len(copies), wrong)
				}
			}
		})
	}
}

// On tables with deletion history the healing guarantee is necessarily
// weaker (deletions live only on-chip): after faults and Repair the table
// must be internally consistent and every lookup must return either the
// correct value or a miss — never a wrong value, never a panic.
func TestFaultMatrixAfterDeletions(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			for trial := uint64(0); trial < 4; trial++ {
				tab, expect := build(t, c, 0.80)
				deleted := map[uint64]struct{}{}
				i := 0
				for k := range expect {
					if i%3 == 0 {
						tab.Delete(k)
						deleted[k] = struct{}{}
					}
					i++
				}
				inj := NewInjector(7000*c.cfg.Seed + trial)
				for i := 0; i < 6; i++ {
					inj.FlipCounterBit(tab)
					inj.CorruptCounter(tab)
					inj.ZeroCounter(tab)
					inj.TombstoneCounter(tab)
					inj.ClearStashFlag(tab)
					inj.SetStashFlag(tab)
				}
				tab.Repair()
				if err := tab.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: invariants after repair: %v", trial, err)
				}
				for k, v := range expect {
					got, ok := tab.Lookup(k)
					if ok && got != v {
						t.Fatalf("trial %d: key %#x returned wrong value %d (want %d or miss)",
							trial, k, got, v)
					}
					if _, del := deleted[k]; !del && !ok {
						// A live key may only die when counter faults erased
						// every trace; it must then stay consistently dead.
						if _, again := tab.Lookup(k); again {
							t.Fatalf("trial %d: key %#x flickers", trial, k)
						}
					}
				}
				if rep2 := tab.Repair(); rep2.Any() {
					t.Fatalf("trial %d: second repair not a no-op: %v", trial, rep2)
				}
			}
		})
	}
}

// Every single-bit flip in a snapshot must be detected at Load with a typed
// *CorruptError — exhaustively, for both table kinds.
func TestSnapshotEveryBitFlipDetected(t *testing.T) {
	snapshots := map[string][]byte{}
	{
		tab, err := core.New(core.Config{BucketsPerTable: 8, Seed: 111, StashEnabled: true, MaxLoop: 20})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k < 30; k++ {
			tab.Insert(k*0x9e37, k)
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snapshots["single"] = buf.Bytes()
	}
	{
		tab, err := core.NewBlocked(core.Config{BucketsPerTable: 4, Seed: 112, StashEnabled: true, MaxLoop: 20})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k < 30; k++ {
			tab.Insert(k*0x9e37, k)
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snapshots["blocked"] = buf.Bytes()
	}
	for name, raw := range snapshots {
		t.Run(name, func(t *testing.T) {
			load := func(b []byte) error {
				var err error
				if name == "blocked" {
					_, err = core.LoadBlocked(bytes.NewReader(b))
				} else {
					_, err = core.Load(bytes.NewReader(b))
				}
				return err
			}
			if err := load(raw); err != nil {
				t.Fatalf("pristine snapshot rejected: %v", err)
			}
			bad := make([]byte, len(raw))
			for off := 0; off < len(raw); off++ {
				for bit := 0; bit < 8; bit++ {
					copy(bad, raw)
					bad[off] ^= 1 << bit
					err := load(bad)
					if err == nil {
						t.Fatalf("bit flip at byte %d bit %d accepted", off, bit)
					}
					var ce *atomicio.CorruptError
					if !errors.As(err, &ce) {
						t.Fatalf("bit flip at byte %d bit %d: error %T (%v), want *CorruptError",
							off, bit, err, err)
					}
				}
			}
		})
	}
}

// Every truncation point of a snapshot must be rejected, never panic.
func TestSnapshotEveryTruncationDetected(t *testing.T) {
	tab, err := core.New(core.Config{BucketsPerTable: 8, Seed: 113, StashEnabled: true, MaxLoop: 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k < 25; k++ {
		tab.Insert(k*31, k)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := core.Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Sharded snapshots: every single-bit flip — header, frame lengths, frame
// bodies, trailer — must be detected by shard.Load.
func TestShardedSnapshotEveryBitFlipDetected(t *testing.T) {
	s, err := shard.New(4, 77, func(i int) (shard.Inner, error) {
		return core.New(core.Config{BucketsPerTable: 4, Seed: uint64(200 + i),
			StashEnabled: true, MaxLoop: 20})
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k < 40; k++ {
		s.Insert(k*0x51ed, k)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := shard.Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine sharded snapshot rejected: %v", err)
	}
	bad := make([]byte, len(raw))
	for off := 0; off < len(raw); off++ {
		for bit := 0; bit < 8; bit++ {
			copy(bad, raw)
			bad[off] ^= 1 << bit
			_, err := shard.Load(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", off, bit)
			}
			var ce *atomicio.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("bit flip at byte %d bit %d: error %T (%v), want *CorruptError",
					off, bit, err, err)
			}
		}
	}
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := shard.Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("sharded truncation at %d accepted", cut)
		}
	}
}

// The injector primitives for snapshot corruption drive the same detection
// property from random positions, and the injector is deterministic: two
// injectors with one seed produce identical fault sequences.
func TestInjectorDeterministicAndSnapshotPrimitives(t *testing.T) {
	mk := func() faultTable {
		tab, err := core.New(core.Config{BucketsPerTable: 32, Seed: 120, StashEnabled: true, MaxLoop: 30})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k < 90; k++ {
			tab.Insert(k*0x2545f4914f6cdd1d, k)
		}
		return tab
	}
	a, b := mk(), mk()
	ia, ib := NewInjector(42), NewInjector(42)
	for i := 0; i < 20; i++ {
		fa := ia.FlipCounterBit(a)
		fb := ib.FlipCounterBit(b)
		if fa != fb {
			t.Fatalf("injector diverged at step %d: %+v vs %+v", i, fa, fb)
		}
	}

	tab := mk()
	var buf bytes.Buffer
	if _, err := tab.(*core.Table).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(43)
	for i := 0; i < 200; i++ {
		raw := append([]byte{}, buf.Bytes()...)
		f := inj.FlipSnapshotBit(raw)
		if _, err := core.Load(bytes.NewReader(raw)); err == nil {
			t.Fatalf("injected snapshot flip %+v accepted", f)
		}
	}
	for i := 0; i < 100; i++ {
		raw := append([]byte{}, buf.Bytes()...)
		if _, err := core.Load(bytes.NewReader(inj.Truncate(raw))); err == nil {
			t.Fatal("injected truncation accepted")
		}
	}
}
