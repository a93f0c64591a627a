package shard

import (
	"sync"
	"testing"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// The §III.H one-writer-many-readers mode is a one-shard Sharded. These
// tests drive it with one writer (or several serialized writers) against a
// pack of readers, and run under the race detector in ci.sh.

// oneShard wraps tab as a one-shard table.
func oneShard(t *testing.T, tab Inner) *Sharded {
	t.Helper()
	s, err := New(1, 0, func(int) (Inner, error) { return tab, nil })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustCore(t *testing.T, cfg core.Config) *core.Table {
	t.Helper()
	tab, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func mustBlocked(t *testing.T, cfg core.Config) *core.BlockedTable {
	t.Helper()
	tab, err := core.NewBlocked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func fillKeys(seed uint64, n int) []uint64 {
	s := hashutil.Mix64(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
	}
	return keys
}

// readUntil runs reader goroutines calling check on random keys[:n] until
// stop closes; check reports a violation by returning false.
func readUntil(wg *sync.WaitGroup, stop <-chan struct{}, readers int, seed uint64,
	keys []uint64, check func(r int, k uint64) bool) {
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := hashutil.Mix64(seed + uint64(r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !check(r, keys[hashutil.SplitMix64(&s)%uint64(len(keys))]) {
					return
				}
			}
		}(r)
	}
}

// TestConcurrentReadersOneWriter: one writer mutating, many readers looking
// up.
func TestConcurrentReadersOneWriter(t *testing.T) {
	c := oneShard(t, mustCore(t, core.Config{BucketsPerTable: 1024, Seed: 45, StashEnabled: true}))
	keys := fillKeys(46, 2000)
	// Pre-load half so readers have hits from the start.
	for _, k := range keys[:1000] {
		c.Insert(k, k+1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readUntil(&wg, stop, 4, 0, keys, func(r int, k uint64) bool {
		if v, ok := c.Lookup(k); ok && v != k+1 {
			t.Errorf("reader %d: wrong value %d for key %#x", r, v, k)
			return false
		}
		return true
	})
	for _, k := range keys[1000:] {
		c.Insert(k, k+1)
	}
	for _, k := range keys[:300] {
		c.Delete(k)
	}
	close(stop)
	wg.Wait()

	if c.Len() != 1700 {
		t.Fatalf("Len = %d, want 1700", c.Len())
	}
	for _, k := range keys[300:] {
		if v, ok := c.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost after concurrent phase", k)
		}
	}
	if got := c.Stats(); got.Lookups == 0 {
		t.Fatal("concurrent lookups not counted")
	}
}

// TestConcurrentInterleavedStress drives several writers (Insert/Delete
// serialize under the write lock) against a pack of readers, then checks the
// table after quiescence: exact population, exact per-key content, and the
// full structural invariants of the inner table.
//
// Writers own disjoint key ranges, so each writer's per-key op sequence is
// deterministic regardless of interleaving: keys ≡ 0 (mod 3) are inserted,
// deleted, and reinserted with a new value; keys ≡ 1 (mod 3) are inserted
// and deleted; keys ≡ 2 (mod 3) are inserted once.
func TestConcurrentInterleavedStress(t *testing.T) {
	inner := mustCore(t, core.Config{BucketsPerTable: 2048, Seed: 51, StashEnabled: true})
	c := oneShard(t, inner)

	const writers, perWriter = 4, 1500
	all := make([]uint64, writers*perWriter)
	for i := range all {
		all[i] = uint64(i)
	}
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readUntil(&readerWG, stop, 4, 100, all, func(r int, k uint64) bool {
		if v, ok := c.Lookup(k); ok && v != k+1 && v != k+2 {
			t.Errorf("reader %d: impossible value %d for key %#x", r, v, k)
			return false
		}
		return true
	})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			base := uint64(w * perWriter)
			for i := uint64(0); i < perWriter; i++ {
				k := base + i
				if c.Insert(k, k+1).Status == kv.Failed {
					t.Errorf("writer %d: insert %#x failed", w, k)
					return
				}
				switch k % 3 {
				case 0:
					c.Delete(k)
					c.Insert(k, k+2)
				case 1:
					c.Delete(k)
				}
				if i%64 == 0 {
					// Writers read too: their own settled keys have
					// deterministic answers even mid-run.
					if v, ok := c.Lookup(k); (k%3 == 1) == ok || (ok && k%3 == 0 && v != k+2) {
						t.Errorf("writer %d: key %#x read back (%d,%v)", w, k, v, ok)
						return
					}
				}
			}
		}(w)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		t.Fatalf("concurrent phase failed")
	}

	wantLen := writers * perWriter * 2 / 3 // thirds 0 and 2 survive
	if c.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", c.Len(), wantLen)
	}
	for _, k := range all {
		v, ok := c.Lookup(k)
		switch k % 3 {
		case 0:
			if !ok || v != k+2 {
				t.Fatalf("reinserted key %#x = (%d,%v), want (%d,true)", k, v, ok, k+2)
			}
		case 1:
			if ok {
				t.Fatalf("deleted key %#x still present with value %d", k, v)
			}
		case 2:
			if !ok || v != k+1 {
				t.Fatalf("inserted key %#x = (%d,%v), want (%d,true)", k, v, ok, k+1)
			}
		}
	}
	if err := inner.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after quiescence: %v", err)
	}
}

func TestConcurrentWrapsBlocked(t *testing.T) {
	c := oneShard(t, mustBlocked(t, core.Config{BucketsPerTable: 128, Seed: 47, StashEnabled: true}))
	keys := fillKeys(48, 500)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, k := range keys {
			c.Lookup(k)
		}
	}()
	for _, k := range keys {
		if c.Insert(k, k).Status == kv.Failed {
			t.Error("insert failed")
			break
		}
	}
	wg.Wait()
	for _, k := range keys {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("key %#x missing", k)
		}
	}
	if c.LoadRatio() <= 0 || c.Capacity() == 0 || c.StashLen() < 0 {
		t.Fatal("accessor smoke checks failed")
	}
}

// pathwiseUnderReaders fills two thirds of keys through InsertPathwise, then
// runs readers over that settled part while the writer inserts the rest:
// every settled key must stay findable with its value between path moves.
func pathwiseUnderReaders(t *testing.T, c *Sharded, keys []uint64, readers int, seed uint64) {
	t.Helper()
	split := len(keys) * 2 / 3
	for _, k := range keys[:split] {
		c.InsertPathwise(k, k+1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readUntil(&wg, stop, readers, seed, keys[:split], func(r int, k uint64) bool {
		if v, ok := c.Lookup(k); !ok || v != k+1 {
			t.Errorf("reader %d: key %#x missing or wrong (%d,%v)", r, k, v, ok)
			return false
		}
		return true
	})
	kicks := int64(0)
	for _, k := range keys[split:] {
		out := c.InsertPathwise(k, k+1)
		if out.Status == kv.Failed {
			t.Error("pathwise insert failed")
			break
		}
		kicks += int64(out.Kicks)
	}
	close(stop)
	wg.Wait()
	if kicks == 0 {
		t.Fatal("no path moves ran while readers were active")
	}
	for _, k := range keys {
		if v, ok := c.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost after concurrent pathwise fill", k)
		}
	}
}

// TestConcurrentInsertPathwise: readers never lose an item mid-path.
func TestConcurrentInsertPathwise(t *testing.T) {
	inner := mustCore(t, core.Config{BucketsPerTable: 1024, Seed: 61, AssumeUniqueKeys: true,
		StashEnabled: true})
	pathwiseUnderReaders(t, oneShard(t, inner), fillKeys(62, int(0.88*float64(inner.Capacity()))), 4, 0)
	if err := inner.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentBlockedPathwise(t *testing.T) {
	inner := mustBlocked(t, core.Config{BucketsPerTable: 256, Seed: 71, AssumeUniqueKeys: true,
		StashEnabled: true})
	pathwiseUnderReaders(t, oneShard(t, inner), fillKeys(72, int(0.98*float64(inner.Capacity()))), 3, 40)
	if err := inner.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPathwiseBlockedBasic(t *testing.T) {
	c := oneShard(t, mustBlocked(t, core.Config{BucketsPerTable: 64, Seed: 63, StashEnabled: true}))
	if out := c.InsertPathwise(1, 2); out.Status != kv.Placed {
		t.Fatalf("insert status %v", out.Status)
	}
	if v, ok := c.Lookup(1); !ok || v != 2 {
		t.Fatal("insert lost")
	}
}
