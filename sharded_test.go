package mccuckoo

import (
	"runtime"
	"sync"
	"testing"

	"mccuckoo/internal/hashutil"
)

func TestNewShardedValidation(t *testing.T) {
	for _, bad := range []struct{ cap, shards int }{
		{30000, 0}, {30000, 3}, {30000, 12}, {30000, -4}, {16, 4},
	} {
		if _, err := NewSharded(bad.cap, bad.shards); err == nil {
			t.Errorf("NewSharded(%d, %d) accepted", bad.cap, bad.shards)
		}
	}
	if _, err := NewSharded(30000, 4, WithHashFunctions(9)); err == nil {
		t.Error("bad option accepted")
	}
	s, err := NewSharded(30000, 8, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 8 {
		t.Fatalf("Shards = %d, want 8", s.Shards())
	}
	if c := s.Capacity(); c < 30000 {
		t.Fatalf("Capacity = %d, want >= 30000", c)
	}
}

func TestShardedRoundTrip(t *testing.T) {
	s, err := NewSharded(12000, 4, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 5000; k++ {
		if res := s.Insert(k, k*2); res.Status == Failed {
			t.Fatalf("insert %d failed", k)
		}
	}
	if s.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", s.Len())
	}
	for k := uint64(1); k <= 5000; k++ {
		if v, ok := s.Lookup(k); !ok || v != k*2 {
			t.Fatalf("lookup(%d) = (%d,%v)", k, v, ok)
		}
	}
	if _, ok := s.Lookup(99999999); ok {
		t.Fatal("absent key found")
	}
	// Upsert.
	s.Insert(1, 42)
	if v, _ := s.Lookup(1); v != 42 {
		t.Fatal("upsert did not replace value")
	}
	if !s.Delete(1) || s.Delete(1) {
		t.Fatal("delete semantics broken")
	}
	if s.LoadRatio() <= 0 || s.StashLen() < 0 {
		t.Fatal("accessor smoke checks failed")
	}
	st := s.Stats()
	if st.Inserts != 5001 || st.Updates != 1 || st.Deletes != 2 || st.Lookups == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestShardedBatchAPI(t *testing.T) {
	s, err := NewSharded(30000, 8, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	n := 4000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i) * 10
	}
	res := make([]InsertResult, n)
	s.InsertBatchInto(keys, vals, res)
	for i, r := range res {
		if r.Status != Placed {
			t.Fatalf("batch insert %d: status %v", i, r.Status)
		}
	}
	got, ok := lookupBatch(s, append(keys[:10:10], 777777))
	for i := 0; i < 10; i++ {
		if !ok[i] || got[i] != vals[i] {
			t.Fatalf("batch lookup %d: (%d,%v)", i, got[i], ok[i])
		}
	}
	if ok[10] {
		t.Fatal("absent key found by LookupBatchInto")
	}
	removed := make([]bool, 100)
	s.DeleteBatchInto(keys[:100], removed)
	for i, r := range removed {
		if !r {
			t.Fatalf("batch delete %d reported absent", i)
		}
	}
	if s.Len() != n-100 {
		t.Fatalf("Len = %d, want %d", s.Len(), n-100)
	}
}

// batchFixture is a Sharded table with n keys and caller-owned result
// slices for the batch calls.
type batchFixture struct {
	s          *Sharded
	keys, vals []uint64
	out        []InsertResult
	found      []bool
	removed    []bool
}

func newBatchFixture(t *testing.T, n int) *batchFixture {
	t.Helper()
	s, err := NewSharded(1<<14, 8, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	f := &batchFixture{s: s, keys: make([]uint64, n), vals: make([]uint64, n),
		out: make([]InsertResult, n), found: make([]bool, n), removed: make([]bool, n)}
	for i := range f.keys {
		f.keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		f.vals[i] = uint64(i)
	}
	return f
}

// roundTrip inserts, looks up and deletes every key in three batches and
// checks the results.
func (f *batchFixture) roundTrip(t *testing.T) {
	f.s.InsertBatchInto(f.keys, f.vals, f.out)
	f.s.LookupBatchInto(f.keys, f.vals, f.found)
	f.s.DeleteBatchInto(f.keys, f.removed)
	for i := range f.keys {
		if f.out[i].Status != Placed || !f.found[i] || f.vals[i] != uint64(i) || !f.removed[i] {
			t.Fatalf("key %d: insert %v, found %v (%d), removed %v", i, f.out[i].Status, f.found[i], f.vals[i], f.removed[i])
		}
	}
}

// TestBatchScratchDoesNotOutliveBatch: a 4096-key batch leaves no
// batch-sized buffer behind in the lock layer. Its grouping buffer is past
// the keep bound, so it is the call's own, and outcomes are converted into
// the caller's slice as each shard produces them. After the batches and one
// GC the live heap is back where it was; a grouping or outcome buffer
// parked in a sync.Pool (32 and 64 KiB here) would still be reachable.
func TestBatchScratchDoesNotOutliveBatch(t *testing.T) {
	f := newBatchFixture(t, 4096)
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	runtime.GC() // retire pooled buffers left by earlier tests
	before := live()
	f.roundTrip(t)
	grew := live() - before
	runtime.KeepAlive(f)
	if grew > 16<<10 {
		t.Errorf("live heap grew %d bytes across 4096-key batches, want at most 16 KiB", grew)
	}
}

// TestSmallBatchZeroAlloc: a 16-key batch reuses a pooled grouping buffer
// within the keep bound, so the batch calls allocate nothing.
func TestSmallBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under -race")
	}
	f := newBatchFixture(t, 16)
	if n := testing.AllocsPerRun(200, func() { f.roundTrip(t) }); n != 0 {
		t.Errorf("%v allocs per 16-key insert, lookup and delete batch, want 0", n)
	}
}

func TestShardedShardStats(t *testing.T) {
	s, err := NewSharded(40000, 16, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 20000)
	rng := uint64(3)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&rng)
	}
	vals := make([]uint64, len(keys))
	s.InsertBatchInto(keys, vals, nil)
	for _, k := range keys[:5000] {
		s.Lookup(k)
	}
	st := s.ShardStats()
	if len(st.Shards) != 16 {
		t.Fatalf("%d shard stats, want 16", len(st.Shards))
	}
	var items int
	var readLocks, writeLocks int64
	for _, sh := range st.Shards {
		items += sh.Items
		readLocks += sh.ReadLocks
		writeLocks += sh.WriteLocks
		if sh.Capacity == 0 || sh.LoadRatio <= 0 {
			t.Fatalf("shard %d: empty capacity or load", sh.Shard)
		}
	}
	if items != st.Items || items != s.Len() {
		t.Fatalf("per-shard items %d, aggregate %d, Len %d", items, st.Items, s.Len())
	}
	if readLocks != st.ReadLocks || writeLocks != st.WriteLocks {
		t.Fatal("lock counters do not aggregate")
	}
	// One InsertBatchInto: at most one write-lock acquisition per shard.
	if writeLocks > 16 {
		t.Fatalf("write locks = %d for a single batch over 16 shards", writeLocks)
	}
	if st.Hits != 5000 {
		t.Fatalf("Hits = %d, want 5000", st.Hits)
	}
	if st.MinLoad <= 0 || st.MaxLoad >= 1 || st.MinLoad > st.MaxLoad {
		t.Fatalf("load bounds: min %.3f max %.3f", st.MinLoad, st.MaxLoad)
	}
	// Uniform keys over 16 shards: loads should be in the same ballpark.
	if st.MaxLoad > 2.5*st.MinLoad {
		t.Fatalf("shard imbalance: min %.3f max %.3f", st.MinLoad, st.MaxLoad)
	}
}

func TestShardedRange(t *testing.T) {
	s, err := NewSharded(12000, 4, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3000; k++ {
		s.Insert(k, k+7)
	}
	seen := make(map[uint64]uint64, 3000)
	s.Range(func(k, v uint64) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("key %d reported twice", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != 3000 {
		t.Fatalf("Range saw %d items, want 3000", len(seen))
	}
	for k, v := range seen {
		if v != k+7 {
			t.Fatalf("key %d: value %d, want %d", k, v, k+7)
		}
	}
}

// TestShardedConcurrentSmoke exercises the public API from many goroutines
// (covered in depth by internal/shard's race tests).
func TestShardedConcurrentSmoke(t *testing.T) {
	s, err := NewSharded(60000, 8, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	const perG, goros = 2000, 4
	var wg sync.WaitGroup
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * perG)
			for k := base; k < base+perG; k++ {
				s.Insert(k, k^0xabc)
			}
			for k := base; k < base+perG; k++ {
				if v, ok := s.Lookup(k); !ok || v != k^0xabc {
					t.Errorf("goroutine %d: key %d = (%d,%v)", g, k, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != perG*goros {
		t.Fatalf("Len = %d, want %d", s.Len(), perG*goros)
	}
}
