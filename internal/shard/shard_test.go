package shard

import (
	"sync"
	"testing"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// newSharded builds a sharded table over single-slot core tables, each with
// an independently derived seed.
func newSharded(t testing.TB, shards, bucketsPerShardTable int, seed uint64) *Sharded {
	t.Helper()
	s, err := New(shards, seed, func(i int) (Inner, error) {
		return core.New(core.Config{
			BucketsPerTable: bucketsPerShardTable,
			Seed:            hashutil.Mix64(seed + uint64(i)*0x9e3779b97f4a7c15),
			StashEnabled:    true,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	build := func(int) (Inner, error) {
		return core.New(core.Config{BucketsPerTable: 16, StashEnabled: true})
	}
	for _, bad := range []int{0, -1, 3, 6, 12, MaxShards * 2} {
		if _, err := New(bad, 1, build); err == nil {
			t.Errorf("shard count %d accepted", bad)
		}
	}
	for _, good := range []int{1, 2, 4, 64} {
		if _, err := New(good, 1, build); err != nil {
			t.Errorf("shard count %d rejected: %v", good, err)
		}
	}
}

// TestAgainstModel drives a mixed op stream against the sharded table and a
// map model and requires identical answers, then checks every shard's
// internal invariants.
func TestAgainstModel(t *testing.T) {
	s := newSharded(t, 8, 128, 7)
	model := make(map[uint64]uint64)
	rng := uint64(99)
	for i := 0; i < 20000; i++ {
		r := hashutil.SplitMix64(&rng)
		key := r % 1500
		switch (r >> 32) % 6 {
		case 0, 1, 2:
			s.Insert(key, r)
			model[key] = r
		case 3:
			if s.Delete(key) != (func() bool { _, ok := model[key]; return ok }()) {
				t.Fatalf("op %d: delete disagreement for key %d", i, key)
			}
			delete(model, key)
		default:
			v, ok := s.Lookup(key)
			mv, mok := model[key]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("op %d: lookup(%d) = (%d,%v), model (%d,%v)", i, key, v, ok, mv, mok)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
	for i := range s.shards {
		if err := s.shards[i].tab.(*core.Table).CheckInvariants(); err != nil {
			t.Fatalf("shard %d invariants: %v", i, err)
		}
	}
}

// TestRoutingStable verifies every key always lands on the same shard and
// that items are findable only through the public API (routing is total).
func TestRoutingStable(t *testing.T) {
	s := newSharded(t, 16, 64, 3)
	for k := uint64(0); k < 1000; k++ {
		first := s.shardIndex(k)
		for rep := 0; rep < 3; rep++ {
			if got := s.shardIndex(k); got != first {
				t.Fatalf("key %d routed to %d then %d", k, first, got)
			}
		}
		if first < 0 || first >= s.NumShards() {
			t.Fatalf("key %d routed out of range: %d", k, first)
		}
	}
	// Single shard degenerates to index 0.
	one := newSharded(t, 1, 64, 3)
	for k := uint64(0); k < 100; k++ {
		if one.shardIndex(k) != 0 {
			t.Fatal("single-shard routing must be 0")
		}
	}
}

// TestRoutingBalance checks the salted-finalizer routing spreads uniform
// keys evenly: no shard further than 30% from the mean at 64k keys.
func TestRoutingBalance(t *testing.T) {
	s := newSharded(t, 16, 8, 11)
	counts := make([]int, s.NumShards())
	rng := uint64(5)
	n := 1 << 16
	for i := 0; i < n; i++ {
		counts[s.shardIndex(hashutil.SplitMix64(&rng))]++
	}
	mean := float64(n) / float64(len(counts))
	for i, c := range counts {
		if f := float64(c); f < 0.7*mean || f > 1.3*mean {
			t.Fatalf("shard %d holds %d of %d keys (mean %.0f): routing imbalanced", i, c, n, mean)
		}
	}
}

// TestBatchedMatchesSingle runs the same operations through the batch API
// on one table and the per-op API on a second, identically seeded table and
// requires identical results and stats (modulo lock counts).
func TestBatchedMatchesSingle(t *testing.T) {
	a := newSharded(t, 4, 256, 21)
	b := newSharded(t, 4, 256, 21)
	keys := make([]uint64, 3000)
	vals := make([]uint64, len(keys))
	rng := uint64(17)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&rng) % 4000
		vals[i] = hashutil.SplitMix64(&rng)
	}

	gotIns := make([]kv.Outcome, len(keys))
	a.InsertBatchInto(keys, vals, gotIns)
	for i := range keys {
		want := b.Insert(keys[i], vals[i])
		if gotIns[i] != want {
			t.Fatalf("insert %d: batch %+v, single %+v", i, gotIns[i], want)
		}
	}
	gotVals, gotOK := make([]uint64, len(keys)), make([]bool, len(keys))
	a.LookupBatchInto(keys, gotVals, gotOK)
	for i := range keys {
		wv, wok := b.Lookup(keys[i])
		if gotOK[i] != wok || gotVals[i] != wv {
			t.Fatalf("lookup %d: batch (%d,%v), single (%d,%v)", i, gotVals[i], gotOK[i], wv, wok)
		}
	}
	gotDel := make([]bool, 1000)
	a.DeleteBatchInto(keys[:1000], gotDel)
	for i, k := range keys[:1000] {
		if want := b.Delete(k); gotDel[i] != want {
			t.Fatalf("delete %d: batch %v, single %v", i, gotDel[i], want)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len diverged: batch %d, single %d", a.Len(), b.Len())
	}

	// A batch touches each shard at most once per call.
	st := a.ShardStats()
	maxWrite := int64(2) // one InsertBatchInto + one DeleteBatchInto
	for _, sh := range st.Shards {
		if sh.WriteLocks > maxWrite {
			t.Fatalf("shard %d took %d write locks for 2 batch calls", sh.Shard, sh.WriteLocks)
		}
		if sh.ReadLocks > 1 {
			t.Fatalf("shard %d took %d read locks for 1 batch call", sh.Shard, sh.ReadLocks)
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	s := newSharded(t, 2, 64, 5)
	s.InsertBatchInto(nil, nil, nil)
	s.LookupBatchInto(nil, nil, nil)
	s.DeleteBatchInto(nil, nil)
	if st := s.ShardStats(); s.Len() != 0 || st.ReadLocks != 0 || st.WriteLocks != 0 {
		t.Fatalf("empty batches: Len %d, %d read and %d write locks, want none", s.Len(), st.ReadLocks, st.WriteLocks)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched InsertBatchInto lengths must panic")
		}
	}()
	s.InsertBatchInto([]uint64{1, 2}, []uint64{1}, nil)
}

// TestRange verifies exactly-once cross-shard iteration and early stop.
func TestRange(t *testing.T) {
	s := newSharded(t, 8, 128, 9)
	want := make(map[uint64]uint64)
	for k := uint64(0); k < 2000; k++ {
		s.Insert(k, k*3)
		want[k] = k * 3
	}
	got := make(map[uint64]uint64)
	s.Range(func(k, v uint64) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("key %d reported twice", k)
		}
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d items, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: Range saw %d, want %d", k, got[k], v)
		}
	}
	seen := 0
	s.Range(func(k, v uint64) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("early stop saw %d items, want 10", seen)
	}
}

// TestReadPathStashProbesCounted: lookups through the read path, single and
// batched, count their stash probes; the shards' Ops.StashProbes sum to
// Stats().StashProbes.
func TestReadPathStashProbesCounted(t *testing.T) {
	s := newSharded(t, 4, 16, 17)
	keys := make([]uint64, 400) // more keys than the 192 buckets: the rest stash
	for i := range keys {
		keys[i] = uint64(i)
		s.Insert(keys[i], keys[i])
	}
	for _, k := range keys {
		s.Lookup(k)
	}
	single := s.Stats().StashProbes
	s.LookupBatchInto(keys, make([]uint64, len(keys)), make([]bool, len(keys)))
	total, perShard := s.Stats().StashProbes, int64(0)
	for _, sh := range s.ShardStats().Shards {
		perShard += sh.Ops.StashProbes
	}
	if single == 0 || total != 2*single || perShard != total {
		t.Fatalf("stash probes: %d after single lookups, %d after the same batch (want twice), %d summed over shards",
			single, total, perShard)
	}
}

// TestShardStats checks per-shard aggregation: totals match the flat view
// and lock/lookup counters add up.
func TestShardStats(t *testing.T) {
	s := newSharded(t, 4, 256, 13)
	for k := uint64(0); k < 1200; k++ {
		s.Insert(k, k)
	}
	hits := 0
	for k := uint64(0); k < 2000; k++ {
		if _, ok := s.Lookup(k); ok {
			hits++
		}
	}
	for k := uint64(0); k < 100; k++ {
		s.Delete(k)
	}
	st := s.ShardStats()
	if st.Items != s.Len() || st.Items != 1100 {
		t.Fatalf("aggregate Items = %d, Len = %d, want 1100", st.Items, s.Len())
	}
	if st.Capacity != s.Capacity() {
		t.Fatalf("aggregate Capacity = %d, Capacity() = %d", st.Capacity, s.Capacity())
	}
	if st.WriteLocks != 1200+100 {
		t.Fatalf("aggregate WriteLocks = %d, want 1300", st.WriteLocks)
	}
	if st.ReadLocks != 2000 || st.Lookups != 2000 {
		t.Fatalf("aggregate ReadLocks/Lookups = %d/%d, want 2000/2000", st.ReadLocks, st.Lookups)
	}
	if st.Hits != int64(hits) || hits != 1200 {
		t.Fatalf("aggregate Hits = %d, counted %d, want 1200", st.Hits, hits)
	}
	if st.MinLoad > st.MaxLoad || st.MaxLoad > 1 || st.MinLoad <= 0 {
		t.Fatalf("load bounds broken: min %.3f max %.3f", st.MinLoad, st.MaxLoad)
	}
	flat := s.Stats()
	if flat.Lookups != st.Lookups || flat.Hits != st.Hits {
		t.Fatalf("Stats()/ShardStats() disagree: %d/%d vs %d/%d",
			flat.Lookups, flat.Hits, st.Lookups, st.Hits)
	}
	if m := s.Meter(); m.OffChipWrites == 0 {
		t.Fatal("aggregate meter shows no off-chip writes after 1200 inserts")
	}
}

// TestConcurrentStress hammers the table from many goroutines mixing all
// five operations (the -race target for this package). Writers own disjoint
// key ranges so final contents are checkable; readers roam everywhere.
func TestConcurrentStress(t *testing.T) {
	s := newSharded(t, 8, 512, 31)
	const (
		writers      = 4
		readers      = 4
		keysPerGoro  = 2000
		deletedEvery = 4 // every 4th key is deleted again
	)
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			base := uint64(w) * keysPerGoro
			buf := make([]uint64, 0, 64)
			for k := base; k < base+keysPerGoro; k++ {
				if k%2 == 0 {
					s.Insert(k, k+1)
				} else {
					buf = append(buf, k)
					if len(buf) == cap(buf) {
						vals := make([]uint64, len(buf))
						for i, bk := range buf {
							vals[i] = bk + 1
						}
						s.InsertBatchInto(buf, vals, nil)
						buf = buf[:0]
					}
				}
			}
			vals := make([]uint64, len(buf))
			for i, bk := range buf {
				vals[i] = bk + 1
			}
			s.InsertBatchInto(buf, vals, nil)
			for k := base; k < base+keysPerGoro; k += deletedEvery {
				s.Delete(k)
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := hashutil.Mix64(uint64(r) ^ 0xfeed)
			batch := make([]uint64, 16)
			vals, oks := make([]uint64, len(batch)), make([]bool, len(batch))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					batch[i] = hashutil.SplitMix64(&rng) % (writers * keysPerGoro)
				}
				s.LookupBatchInto(batch, vals, oks)
				for i := range batch {
					if oks[i] && vals[i] != batch[i]+1 {
						t.Errorf("reader %d: key %d has value %d", r, batch[i], vals[i])
						return
					}
				}
				s.Len()
			}
		}(r)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	wantLen := writers * keysPerGoro * (deletedEvery - 1) / deletedEvery
	if got := s.Len(); got != wantLen {
		t.Fatalf("Len = %d after quiescence, want %d", got, wantLen)
	}
	for k := uint64(0); k < writers*keysPerGoro; k++ {
		v, ok := s.Lookup(k)
		if k%deletedEvery == 0 {
			if ok {
				t.Fatalf("deleted key %d still present", k)
			}
			continue
		}
		if !ok || v != k+1 {
			t.Fatalf("key %d lost or wrong after quiescence: (%d,%v)", k, v, ok)
		}
	}
	for i := range s.shards {
		if err := s.shards[i].tab.(*core.Table).CheckInvariants(); err != nil {
			t.Fatalf("shard %d invariants after stress: %v", i, err)
		}
	}
}

// TestKVTableConformance exercises the kv.Table view generically.
func TestKVTableConformance(t *testing.T) {
	var tab kv.Table = newSharded(t, 4, 64, 1)
	out := tab.Insert(42, 99)
	if out.Status != kv.Placed {
		t.Fatalf("insert status %v", out.Status)
	}
	if v, ok := tab.Lookup(42); !ok || v != 99 {
		t.Fatal("lookup through kv.Table failed")
	}
	if tab.LoadRatio() <= 0 || tab.Capacity() == 0 || tab.StashLen() != 0 {
		t.Fatal("accessor smoke checks failed")
	}
	if !tab.Delete(42) || tab.Len() != 0 {
		t.Fatal("delete through kv.Table failed")
	}
	if st := tab.Stats(); st.Inserts != 1 || st.Deletes != 1 {
		t.Fatalf("stats %+v", st)
	}
}
