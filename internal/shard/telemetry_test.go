package shard

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/telemetry"
)

// TestTelemetryConcurrentScrape hammers an instrumented sharded table with
// mixed single and batched traffic while goroutines scrape every HTTP
// endpoint and read ShardStats. Run under -race (ci.sh does), this is the
// proof that the record path, the live gauge source, and the flight
// recorder are data-race-free against real traffic.
func TestTelemetryConcurrentScrape(t *testing.T) {
	s := newSharded(t, 8, 256, 21)
	sink := telemetry.New()
	s.AttachTelemetry(sink)
	sink.SetGaugeSource(s.Gauges)

	srv := httptest.NewServer(sink.Handler())
	defer srv.Close()

	const (
		writers  = 4
		readers  = 4
		scrapers = 2
		opsEach  = 3000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(1000 + w)
			batchK := make([]uint64, 0, 32)
			batchV := make([]uint64, 0, 32)
			for i := 0; i < opsEach; i++ {
				r := hashutil.SplitMix64(&rng)
				key := r % 4000
				switch r >> 62 {
				case 0:
					s.Insert(key, r)
				case 1:
					s.Delete(key)
				default:
					batchK = append(batchK, key)
					batchV = append(batchV, r)
					if len(batchK) == 32 {
						s.InsertBatchInto(batchK, batchV, nil)
						batchK, batchV = batchK[:0], batchV[:0]
					}
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := uint64(7777 + rd)
			keys := make([]uint64, 16)
			for i := 0; i < opsEach; i++ {
				r := hashutil.SplitMix64(&rng)
				if r&1 == 0 {
					s.Lookup(r % 5000)
				} else {
					for j := range keys {
						keys[j] = (r + uint64(j)) % 5000
					}
					s.LookupBatch(keys)
				}
			}
		}(rd)
	}
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for sc := 0; sc < scrapers; sc++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			paths := []string{"/metrics", "/debug/mccuckoo/stats", "/debug/mccuckoo/events"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				s.ShardStats()
				s.Gauges()
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	snap := sink.Snapshot()
	if snap.Counters.Inserts == 0 || snap.Counters.Lookups == 0 {
		t.Fatalf("no traffic recorded: %+v", snap.Counters)
	}
	if got := snap.Gauges.Shards; got != 8 {
		t.Fatalf("gauges report %d shards", got)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"mccuckoo_ops_total", "mccuckoo_offchip_accesses_per_lookup",
		"mccuckoo_copy_count_items", "mccuckoo_shard_load_min",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
	// Events must unpack to valid shard indexes.
	for _, e := range sink.Events() {
		if e.Shard < 0 || e.Shard >= 8 {
			t.Fatalf("event with shard %d out of range", e.Shard)
		}
	}
}

// TestShardStatsEmpty pins the documented zero contract: an idle table
// reports MinLoad and MaxLoad of exactly 0, never negative or NaN.
func TestShardStatsEmpty(t *testing.T) {
	s := newSharded(t, 4, 64, 3)
	st := s.ShardStats()
	if st.MinLoad != 0 || st.MaxLoad != 0 {
		t.Fatalf("empty table: MinLoad %v MaxLoad %v, want exactly 0/0", st.MinLoad, st.MaxLoad)
	}
	if st.Items != 0 || st.LoadRatio != 0 {
		t.Fatalf("empty table stats: %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.StashFlagDensity != 0 {
			t.Fatalf("empty shard %d has flag density %v", sh.Shard, sh.StashFlagDensity)
		}
	}
}

// TestShardStashFlagDensity overfills a tiny table so some shards stash, and
// checks the per-shard flag density is populated and consistent with the
// stash population.
func TestShardStashFlagDensity(t *testing.T) {
	s := newSharded(t, 2, 16, 9) // 2 shards × 3 tables × 16 buckets = 96 slots
	for k := uint64(1); k <= 90; k++ {
		s.Insert(k, k)
	}
	if s.StashLen() == 0 {
		t.Fatal("table not overfilled enough to stash")
	}
	if got := s.StashFlagDensity(); got <= 0 || got > 1 {
		t.Fatalf("aggregate flag density %v out of (0,1]", got)
	}
	st := s.ShardStats()
	sawFlags := false
	for _, sh := range st.Shards {
		if sh.StashFlagDensity < 0 || sh.StashFlagDensity > 1 {
			t.Fatalf("shard %d density %v out of [0,1]", sh.Shard, sh.StashFlagDensity)
		}
		if sh.StashLen > 0 && sh.StashFlagDensity == 0 {
			t.Fatalf("shard %d stashes %d items but reports zero flag density", sh.Shard, sh.StashLen)
		}
		if sh.StashFlagDensity > 0 {
			sawFlags = true
		}
	}
	if !sawFlags {
		t.Fatal("no shard reports stash flags despite stashed items")
	}
}

// TestCopyHistogramMerged checks the cross-shard merge of the redundancy
// distribution against per-item ground truth.
func TestCopyHistogramMerged(t *testing.T) {
	s := newSharded(t, 4, 128, 5)
	const n = 600
	for k := uint64(1); k <= n; k++ {
		s.Insert(k, k)
	}
	hist := s.CopyHistogram()
	total := 0
	for v := 1; v < len(hist); v++ {
		total += hist[v]
	}
	if want := s.Len() - s.StashLen(); total != want {
		t.Fatalf("copy histogram sums to %d items, want %d (main-table items)", total, want)
	}
}

// TestCachedMeterSurvivesGrowAndRepair: every shard's cached meter pointer
// is still its table's meter after Grow and Repair rebuild the table in
// place, so recorded off-chip costs keep counting.
func TestCachedMeterSurvivesGrowAndRepair(t *testing.T) {
	s := newSharded(t, 4, 64, 3)
	for k := uint64(1); k <= 300; k++ {
		s.Insert(k, k)
	}
	if err := s.Grow(2); err != nil {
		t.Fatal(err)
	}
	s.Repair()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		same := sh.meter == sh.tab.Meter()
		sh.mu.RUnlock()
		if !same {
			t.Fatalf("shard %d: cached meter is not its table's after Grow and Repair", i)
		}
	}
}
