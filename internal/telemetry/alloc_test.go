package telemetry_test

// The allocation guarantees: a table without telemetry pays an inlined nil
// check per recording call and allocates nothing, and a table with
// telemetry allocates nothing to record either. TestDisabledPathZeroAlloc
// and its siblings assert both with testing.AllocsPerRun for the lock
// layer and the single-writer tables.

import (
	"testing"

	"mccuckoo"
	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/shard"
	"mccuckoo/internal/telemetry"
)

func newSharded(tb testing.TB, shards, bucketsPerShardTable int, seed uint64) *shard.Sharded {
	tb.Helper()
	s, err := shard.New(shards, seed, func(i int) (shard.Inner, error) {
		return core.New(core.Config{
			BucketsPerTable: bucketsPerShardTable,
			Seed:            hashutil.Mix64(seed + uint64(i)*0x9e3779b97f4a7c15),
			StashEnabled:    true,
		})
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// populate fills the table to a moderate load so the measured operations run
// against realistic bucket occupancy.
func populate(s *shard.Sharded, n int) {
	for k := uint64(1); k <= uint64(n); k++ {
		s.Insert(k, k*3)
	}
}

// lockLayerAllocs returns the average allocations of one round of every
// lock-layer operation against a populated table: the point operations and
// the one-key batches. Batches over several shards record through the same
// calls, but their grouping buffer comes from a sync.Pool, which drops
// buffers at random under -race; TestSmallBatchZeroAlloc covers it.
func lockLayerAllocs(s *shard.Sharded) float64 {
	populate(s, 3000)
	key, value, found := []uint64{778}, make([]uint64, 1), make([]bool, 1)
	return testing.AllocsPerRun(200, func() {
		s.Lookup(1234)        // positive
		s.Lookup(99_999_999)  // negative
		s.Insert(777, 1)      // update of a live key
		s.Delete(123_456_789) // miss
		s.InsertBatchInto(key, key, nil)
		s.LookupBatchInto(key, value, found)
		s.DeleteBatchInto(key, nil)
	})
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	if got := lockLayerAllocs(newSharded(t, 4, 512, 11)); got != 0 {
		t.Fatalf("disabled telemetry lock-layer path allocates %v allocs/op, want 0", got)
	}
}

// TestEnabledPathZeroAlloc: with a sink attached, the lock layer records
// every operation without allocating — the event is a value and the ring's
// slots are preallocated.
func TestEnabledPathZeroAlloc(t *testing.T) {
	s := newSharded(t, 4, 512, 11)
	sink := telemetry.New()
	s.AttachTelemetry(sink)
	if got := lockLayerAllocs(s); got != 0 {
		t.Fatalf("enabled telemetry lock-layer path allocates %v allocs/op, want 0", got)
	}
	if len(sink.Events()) == 0 {
		t.Fatal("flight recorder empty")
	}
}

// TestSingleWriterZeroAlloc: the bare Table and Blocked point operations
// allocate nothing, with or without telemetry attached.
func TestSingleWriterZeroAlloc(t *testing.T) {
	type single interface {
		Insert(key, value uint64) mccuckoo.InsertResult
		Lookup(key uint64) (uint64, bool)
		Delete(key uint64) bool
	}
	build := map[string]func(opts ...mccuckoo.Option) (single, error){
		"table":   func(opts ...mccuckoo.Option) (single, error) { return mccuckoo.New(4096, opts...) },
		"blocked": func(opts ...mccuckoo.Option) (single, error) { return mccuckoo.NewBlocked(4096, opts...) },
	}
	for name, newTab := range build {
		for _, tel := range []*mccuckoo.Telemetry{nil, mccuckoo.NewTelemetry()} {
			var opts []mccuckoo.Option
			if tel != nil {
				opts = append(opts, mccuckoo.WithTelemetry(tel))
			}
			tab, err := newTab(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 3000; k++ {
				tab.Insert(k, k)
			}
			if got := testing.AllocsPerRun(200, func() {
				tab.Lookup(1234)        // positive
				tab.Lookup(99_999_999)  // negative
				tab.Insert(777, 1)      // update of a live key
				tab.Delete(123_456_789) // miss
			}); got != 0 {
				t.Errorf("%s with telemetry %v allocates %v allocs/op, want 0", name, tel != nil, got)
			}
		}
	}
}

func TestEnabledPathRecords(t *testing.T) {
	s := newSharded(t, 4, 512, 11)
	sink := telemetry.New()
	s.AttachTelemetry(sink)
	sink.SetGaugeSource(s.Gauges)
	populate(s, 500)
	s.Lookup(1)
	s.Lookup(1 << 40)
	s.Delete(2)

	snap := sink.Snapshot()
	if snap.Counters.Inserts != 500 || snap.Counters.Lookups != 2 || snap.Counters.Deletes != 1 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Counters.LookupHits != 1 || snap.Counters.LookupMisses != 1 {
		t.Fatalf("lookup split: %+v", snap.Counters)
	}
	if snap.Histograms["offchip_per_insert"].Count != 500 {
		t.Fatalf("insert off-chip histogram count %d", snap.Histograms["offchip_per_insert"].Count)
	}
	// Every recorded lookup must have cost at least one off-chip or on-chip
	// probe's worth of accounting; the positive one read at least one bucket.
	if snap.Histograms["offchip_lookup_pos"].Sum < 1 {
		t.Fatalf("positive lookup off-chip sum %d, want >= 1", snap.Histograms["offchip_lookup_pos"].Sum)
	}
	g := snap.Gauges
	if g.Items != s.Len() || g.Shards != 4 {
		t.Fatalf("gauges: %+v", g)
	}
	if len(g.CopyHist) == 0 {
		t.Fatal("copy histogram missing from gauges")
	}
	if len(sink.Events()) == 0 {
		t.Fatal("flight recorder empty")
	}
}
