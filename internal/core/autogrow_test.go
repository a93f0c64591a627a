package core

import (
	"bytes"
	"io"
	"testing"

	"mccuckoo/internal/kv"
)

// overfill inserts keys until well past the table's original capacity,
// returning the content map of everything that was accepted.
func overfill(t *testing.T, tab kv.Table, seed uint64, n int) map[uint64]uint64 {
	t.Helper()
	expect := make(map[uint64]uint64, n)
	for _, k := range fillKeys(seed, n) {
		if tab.Insert(k, k+17).Status != kv.Failed {
			expect[k] = k + 17
		}
	}
	return expect
}

// An auto-grow table absorbs a workload far past its initial capacity: the
// stash pressure triggers growth instead of piling up.
func TestAutoGrowSingle(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 32, Seed: 41, MaxLoop: 50,
		StashEnabled: true,
		AutoGrow:     AutoGrowPolicy{Enabled: true, StashThreshold: 4}})
	before := tab.Capacity()
	expect := overfill(t, tab, 42, 4*before)
	if tab.Capacity() <= before {
		t.Fatalf("capacity did not grow: %d", tab.Capacity())
	}
	if tab.StashLen() > 4 {
		t.Fatalf("stash above threshold after auto-grow: %d", tab.StashLen())
	}
	st := tab.Stats()
	if st.GrowAttempts == 0 || st.Grows == 0 {
		t.Fatalf("grow stats not recorded: %+v", st)
	}
	for k, v := range expect {
		if got, ok := tab.Lookup(k); !ok || got != v {
			t.Fatalf("key %#x after auto-grow: (%d,%v)", k, got, ok)
		}
	}
	checkInv(t, tab)
}

func TestAutoGrowBlocked(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 8, Seed: 43, MaxLoop: 50,
		StashEnabled: true,
		AutoGrow:     AutoGrowPolicy{Enabled: true, StashThreshold: 2}})
	before := tab.Capacity()
	expect := overfill(t, tab, 44, 4*before)
	if tab.Capacity() <= before {
		t.Fatalf("capacity did not grow: %d", tab.Capacity())
	}
	if st := tab.Stats(); st.Grows == 0 {
		t.Fatalf("grow stats not recorded: %+v", st)
	}
	for k, v := range expect {
		if got, ok := tab.Lookup(k); !ok || got != v {
			t.Fatalf("key %#x after auto-grow: (%d,%v)", k, got, ok)
		}
	}
	checkBlockedInv(t, tab)
}

// Without the policy, the same workload must leave capacity untouched.
func TestNoAutoGrowByDefault(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 32, Seed: 45, MaxLoop: 50, StashEnabled: true})
	before := tab.Capacity()
	overfill(t, tab, 46, 2*before)
	if tab.Capacity() != before {
		t.Fatalf("capacity changed without auto-grow: %d -> %d", before, tab.Capacity())
	}
	if st := tab.Stats(); st.GrowAttempts != 0 {
		t.Fatalf("grow attempts without policy: %+v", st)
	}
}

// Auto-grow needs somewhere to put the overflow that triggers it.
func TestAutoGrowRequiresStash(t *testing.T) {
	_, err := New(Config{BucketsPerTable: 32, Seed: 47,
		AutoGrow: AutoGrowPolicy{Enabled: true}})
	if err == nil {
		t.Fatal("auto-grow without a stash accepted")
	}
}

// Policy validation: a shrink factor or a shrinking backoff is rejected.
func TestAutoGrowPolicyValidation(t *testing.T) {
	bads := []AutoGrowPolicy{
		{Enabled: true, Factor: 0.5},
		{Enabled: true, Backoff: 0.5},
		{Enabled: true, StashThreshold: -1},
		{Enabled: true, MaxAttempts: -2},
	}
	for i, p := range bads {
		if _, err := New(Config{BucketsPerTable: 32, Seed: 48, StashEnabled: true,
			AutoGrow: p}); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
}

// The auto-grow policy survives a snapshot round trip and keeps firing on
// the restored table.
func TestAutoGrowSnapshotRoundTrip(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 32, Seed: 49, MaxLoop: 50,
		StashEnabled: true,
		AutoGrow:     AutoGrowPolicy{Enabled: true, StashThreshold: 3, Factor: 3, MaxAttempts: 2, Backoff: 2}})
	for _, k := range fillKeys(50, 40) {
		tab.Insert(k, k)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.cfg.AutoGrow != tab.cfg.AutoGrow {
		t.Fatalf("policy not preserved: %+v vs %+v", got.cfg.AutoGrow, tab.cfg.AutoGrow)
	}
	before := got.Capacity()
	overfill(t, got, 51, 4*before)
	if got.Capacity() <= before {
		t.Fatal("restored table does not auto-grow")
	}
	checkInv(t, got)
}

// Grow with a populated stash drains it back into the larger table.
func TestGrowWithPopulatedStash(t *testing.T) {
	for _, mode := range []DeletionMode{ResetCounters, Tombstone} {
		tab := mustNew(t, Config{BucketsPerTable: 48, Seed: 52, MaxLoop: 30,
			StashEnabled: true, Deletion: mode})
		expect := overfill(t, tab, 53, tab.Capacity()+tab.Capacity()/4)
		if tab.StashLen() == 0 {
			t.Fatal("test needs stash pressure")
		}
		if err := tab.Grow(2.0); err != nil {
			t.Fatalf("mode %v: Grow: %v", mode, err)
		}
		if tab.StashLen() != 0 {
			t.Fatalf("mode %v: stash not drained by 2x grow: %d", mode, tab.StashLen())
		}
		for k, v := range expect {
			if got, ok := tab.Lookup(k); !ok || got != v {
				t.Fatalf("mode %v: key %#x after grow: (%d,%v)", mode, k, got, ok)
			}
		}
		checkInv(t, tab)
	}
}

// TestGrownStashHashesLikeReload: Grow rebuilds the stash under the grown
// seed, as Load does from the grown table's snapshot, so a grown table with
// stashed items and its reloaded copy hold the same bytes and charge the
// same off-chip reads for the same lookups.
func TestGrownStashHashesLikeReload(t *testing.T) {
	keys := make([]uint64, 880)
	for i := range keys {
		keys[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	single := mustNew(t, Config{BucketsPerTable: 300, Seed: 7, StashEnabled: true, MaxLoop: 4})
	checkGrownMatchesReload(t, single, keys, func(r io.Reader) (grownTable, error) { return Load(r) })
	blocked := mustNewBlocked(t, Config{BucketsPerTable: 100, Seed: 7, StashEnabled: true, MaxLoop: 4})
	checkGrownMatchesReload(t, blocked, keys, func(r io.Reader) (grownTable, error) { return LoadBlocked(r) })
}

// grownTable is what checkGrownMatchesReload drives: either table kind.
type grownTable interface {
	kv.Table
	Grow(growFactor float64) error
	WriteTo(w io.Writer) (int64, error)
}

// checkGrownMatchesReload fills tab with keys, grows it in place and checks
// it against the table load restores from its snapshot.
func checkGrownMatchesReload(t *testing.T, tab grownTable, keys []uint64, load func(io.Reader) (grownTable, error)) {
	t.Helper()
	for _, k := range keys {
		tab.Insert(k, k+1)
	}
	if err := tab.Grow(1); err != nil {
		t.Fatal(err)
	}
	if tab.StashLen() == 0 {
		t.Fatal("test needs stashed items after Grow")
	}
	var grown, reloaded bytes.Buffer
	if _, err := tab.WriteTo(&grown); err != nil {
		t.Fatal(err)
	}
	cp, err := load(bytes.NewReader(grown.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.WriteTo(&reloaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(grown.Bytes(), reloaded.Bytes()) {
		t.Fatalf("a grown table with %d stashed items and its reloaded copy serialize differently", tab.StashLen())
	}
	reads := func(tab grownTable) int64 {
		before := tab.Meter().OffChipReads
		for _, k := range keys {
			if v, ok := tab.Lookup(k); !ok || v != k+1 {
				t.Fatalf("key %#x: (%d,%v)", k, v, ok)
			}
		}
		return tab.Meter().OffChipReads - before
	}
	if got, want := reads(tab), reads(cp); got != want {
		t.Fatalf("looking up %d keys: %d off-chip reads on the grown table, %d on its reloaded copy", len(keys), got, want)
	}
}

func TestBlockedGrowWithPopulatedStash(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 16, Seed: 54, MaxLoop: 30,
		StashEnabled: true})
	expect := overfill(t, tab, 55, tab.Capacity()+tab.Capacity()/4)
	if tab.StashLen() == 0 {
		t.Fatal("test needs stash pressure")
	}
	if err := tab.Grow(2.0); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if tab.StashLen() != 0 {
		t.Fatalf("stash not drained by 2x grow: %d", tab.StashLen())
	}
	for k, v := range expect {
		if got, ok := tab.Lookup(k); !ok || got != v {
			t.Fatalf("key %#x after grow: (%d,%v)", k, got, ok)
		}
	}
	checkBlockedInv(t, tab)
}
