package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, // zeros and clamped negatives
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{1 << 20, 21},
		{1<<62 - 1, histBuckets - 1}, // saturates into the +Inf bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count %d, want %d", s.Count, len(cases))
	}
	if s.Buckets[0] != 2 || s.Buckets[2] != 2 || s.Buckets[3] != 2 {
		t.Fatalf("bucket counts off: %v", s.Buckets[:8])
	}
	if got := s.UpperBound(0); got != 0 {
		t.Errorf("UpperBound(0) = %d, want 0", got)
	}
	if got := s.UpperBound(3); got != 7 {
		t.Errorf("UpperBound(3) = %d, want 7", got)
	}
	if got := s.UpperBound(histBuckets - 1); got != -1 {
		t.Errorf("UpperBound(last) = %d, want -1 (+Inf)", got)
	}
	if (HistSnapshot{}).Mean() != 0 {
		t.Error("empty Mean not 0")
	}
	var m Hist
	m.Observe(10)
	m.Observe(20)
	if got := m.Snapshot().Mean(); got != 15 {
		t.Errorf("Mean = %v, want 15", got)
	}
}

func TestEventPackRoundTrip(t *testing.T) {
	cases := []Event{
		{},
		{Op: OpInsert, Status: uint8(kv.Stashed), Shard: -1, Kicks: 500, OffChip: 7, Nanos: 1234, KeyHash: 1<<64 - 1},
		{Op: OpLookup, Hit: true, Shard: 65535, OffChip: 1<<63 - 1, KeyHash: 0xdead},
		{Op: OpDelete, Hit: true, Shard: 0, Kicks: 1<<31 - 1, Nanos: 1<<63 - 1},
		{Op: OpInsert, Status: uint8(kv.Failed), Shard: 12345},
	}
	for _, e := range cases {
		rec := packEvent(e)
		if got := unpackEvent(rec[:]); got != e {
			t.Errorf("round trip %+v -> %+v", e, got)
		}
	}
}

// each collects a ring's records, oldest first.
func each(r *Ring) [][]uint64 {
	var out [][]uint64
	r.Each(func(rec []uint64) { out = append(out, append([]uint64(nil), rec...)) })
	return out
}

func TestRingWrapOldestFirst(t *testing.T) {
	r := NewRing(10, 3)
	if r.Cap() != 16 {
		t.Fatalf("cap %d, want 16 (rounded up)", r.Cap())
	}
	if got := each(r); len(got) != 0 || r.Len() != 0 {
		t.Fatalf("empty ring reads %v (Len %d)", got, r.Len())
	}
	for i := uint64(0); i < 5; i++ {
		r.Add([]uint64{i, i + 100, i + 200})
	}
	if got := each(r); len(got) != 5 || r.Len() != 5 {
		t.Fatalf("partly filled ring reads %d records (Len %d), want 5", len(got), r.Len())
	}
	for i := uint64(5); i < 40; i++ {
		r.Add([]uint64{i, i + 100, i + 200})
	}
	recs := each(r)
	if len(recs) != 16 || r.Len() != 16 {
		t.Fatalf("got %d records (Len %d), want 16", len(recs), r.Len())
	}
	for i, rec := range recs {
		want := uint64(40 - 16 + i)
		if rec[0] != want || rec[1] != want+100 || rec[2] != want+200 {
			t.Fatalf("record %d is %v, want [%d %d %d] (oldest first)", i, rec, want, want+100, want+200)
		}
	}
}

// TestSinkRingSize pins the flight recorder's fixed capacity: the last
// eventRing events, oldest first.
func TestSinkRingSize(t *testing.T) {
	s := New()
	const n = eventRing + 100
	for i := 0; i < n; i++ {
		s.RecordLookup(-1, uint64(i), false, 0, time.Time{})
	}
	evs := s.Events()
	if len(evs) != eventRing {
		t.Fatalf("flight recorder holds %d events, want %d", len(evs), eventRing)
	}
	for i, e := range evs {
		if want := hashutil.Mix64(uint64(n - eventRing + i)); e.KeyHash != want {
			t.Fatalf("event %d has key hash %x, want %x (oldest first)", i, e.KeyHash, want)
		}
	}
}

func TestSinkRecordAndSnapshot(t *testing.T) {
	s := New()
	s.add(Event{Op: OpInsert, Status: uint8(kv.Placed), Kicks: 3, OffChip: 5, Nanos: 100, Shard: -1})
	s.add(Event{Op: OpInsert, Status: uint8(kv.Stashed), OffChip: 9, Nanos: 50, Shard: 2})
	s.add(Event{Op: OpLookup, Hit: true, OffChip: 1, Nanos: 10})
	s.add(Event{Op: OpLookup, Hit: false, OffChip: 3})
	s.add(Event{Op: OpDelete, Hit: true, OffChip: 0, Nanos: 5})
	s.RecordCorruptLoad()
	s.RecordRepair(core.RepairReport{CountersFixed: 2, SizeBefore: 4, SizeAfter: 4, CopiesBefore: 6, CopiesAfter: 6})
	s.RecordRepair(core.RepairReport{})

	snap := s.Snapshot()
	c := snap.Counters
	if c.Inserts != 2 || c.Lookups != 2 || c.Deletes != 1 {
		t.Fatalf("op counts: %+v", c)
	}
	if c.InsertStatus["placed"] != 1 || c.InsertStatus["stashed"] != 1 {
		t.Fatalf("insert status: %v", c.InsertStatus)
	}
	if c.LookupHits != 1 || c.LookupMisses != 1 || c.DeletesHit != 1 {
		t.Fatalf("hit counts: %+v", c)
	}
	if c.CorruptLoads != 1 {
		t.Fatalf("corrupt loads %d", c.CorruptLoads)
	}
	if c.Repairs != 2 || c.RepairsDirty != 1 || c.RepairFixed["counters"] != 2 {
		t.Fatalf("repairs: %+v", c)
	}
	if got := snap.Histograms["kick_path_length"].Count; got != 2 {
		t.Fatalf("kick hist count %d", got)
	}
	if got := snap.Histograms["offchip_lookup_pos"].Sum; got != 1 {
		t.Fatalf("positive lookup off-chip sum %d", got)
	}
	if got := snap.Histograms["offchip_lookup_neg"].Sum; got != 3 {
		t.Fatalf("negative lookup off-chip sum %d", got)
	}
	// The untimed lookup (Nanos == 0) must not pollute the latency histogram.
	if got := snap.Histograms["latency_lookup_ns"].Count; got != 1 {
		t.Fatalf("lookup latency count %d, want 1 (untimed op excluded)", got)
	}
	if evs := s.Events(); len(evs) != 5 {
		t.Fatalf("flight recorder holds %d events, want 5", len(evs))
	}
}

func TestNilSinkIsSafeAndDisabled(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Fatal("nil sink reports enabled")
	}
	if !s.Start().IsZero() || s.OffChip(&memmodel.Meter{OffChipReads: 3}) != 0 {
		t.Fatal("nil sink read the clock or the meter")
	}
	var mu lockCounter
	if s.OffChipLocked(&mu, &memmodel.Meter{OffChipReads: 3}) != 0 || mu != 0 {
		t.Fatalf("nil sink read the meter or took its lock (%d locks)", mu)
	}
	s.RecordInsert(0, 1, kv.Outcome{}, 1, time.Now())
	s.RecordLookup(0, 1, true, 1, time.Now())
	s.RecordDelete(0, 1, true, 1, time.Now())
	s.RecordCorruptLoad()
	s.RecordRepair(core.RepairReport{CountersFixed: 1})
	s.SetGaugeSource(func() Gauges { return Gauges{} })
	s.SampleGauges(nil) // reads nothing from the table
	if evs := s.Events(); evs != nil {
		t.Fatalf("nil sink events: %v", evs)
	}
	if snap := s.Snapshot(); snap.Counters.Inserts != 0 {
		t.Fatalf("nil sink snapshot: %+v", snap)
	}
}

// lockCounter is a sync.Locker that counts its Lock calls.
type lockCounter int

func (c *lockCounter) Lock()   { *c++ }
func (c *lockCounter) Unlock() {}

func TestGaugeSourceOverridesPush(t *testing.T) {
	s := New()
	tab, err := core.New(core.Config{BucketsPerTable: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 7; k++ {
		tab.Insert(k, k)
	}
	s.SampleGauges(tab)
	if got := s.Snapshot().Gauges.Items; got != 7 {
		t.Fatalf("pushed gauges not served: %d", got)
	}
	s.SetGaugeSource(func() Gauges { return Gauges{Items: 42} })
	if got := s.Snapshot().Gauges.Items; got != 42 {
		t.Fatalf("live source not preferred: %d", got)
	}
	s.SetGaugeSource(nil)
	if got := s.Snapshot().Gauges.Items; got != 7 {
		t.Fatalf("reverting to pushed gauges failed: %d", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	s := New()
	s.add(Event{Op: OpInsert, Status: uint8(kv.Placed), Kicks: 2, OffChip: 4, Nanos: 1500})
	s.add(Event{Op: OpLookup, Hit: true, OffChip: 1, Nanos: 300})
	s.add(Event{Op: OpLookup, Hit: false, OffChip: 3, Nanos: 200})
	s.add(Event{Op: OpDelete, Hit: true, Nanos: 100})
	s.RecordCorruptLoad()
	s.SetGaugeSource(func() Gauges {
		return Gauges{
			Items: 10, Capacity: 100, LoadRatio: 0.1, StashLen: 2, StashFlagDensity: 0.03,
			CopyHist: []int64{0, 6, 3, 1},
			Shards:   4, MinShardLoad: 0.05, MaxShardLoad: 0.2,
			Ops: kv.Stats{GrowAttempts: 3, Grows: 2, GrowFailures: 1, Kicks: 2, StashProbe: 5},
		}
	})

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`mccuckoo_ops_total{op="insert"} 1`,
		`mccuckoo_ops_total{op="lookup"} 2`,
		`mccuckoo_inserts_total{status="placed"} 1`,
		`mccuckoo_lookups_total{result="hit"} 1`,
		`mccuckoo_lookups_total{result="miss"} 1`,
		`mccuckoo_deletes_removed_total 1`,
		`mccuckoo_corrupt_loads_total 1`,
		`mccuckoo_autogrow_attempts_total 3`,
		`mccuckoo_autogrow_success_total 2`,
		`mccuckoo_autogrow_failures_total 1`,
		`mccuckoo_stash_probes_total 5`,
		`mccuckoo_table_kicks_total 2`,
		`mccuckoo_op_latency_seconds_bucket{op="insert",`,
		`mccuckoo_op_latency_seconds_count{op="lookup"} 2`,
		`mccuckoo_kick_path_length_bucket{le="3"} 1`,
		`mccuckoo_kick_path_length_sum 2`,
		`mccuckoo_offchip_accesses_per_insert_count 1`,
		`mccuckoo_offchip_accesses_per_lookup_count{result="positive"} 1`,
		`mccuckoo_offchip_accesses_per_lookup_count{result="negative"} 1`,
		`mccuckoo_items 10`,
		`mccuckoo_capacity 100`,
		`mccuckoo_load_ratio 0.1`,
		`mccuckoo_stash_len 2`,
		`mccuckoo_stash_flag_density 0.03`,
		`mccuckoo_copy_count_items{copies="1"} 6`,
		`mccuckoo_copy_count_items{copies="3"} 1`,
		`mccuckoo_copy_bucket_fraction{copies="1"}`,
		`mccuckoo_shards 4`,
		`mccuckoo_shard_load_min 0.05`,
		`mccuckoo_shard_load_max 0.2`,
		`mccuckoo_uptime_seconds`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("exposition does not end with a newline")
	}
	// Cumulative bucket sanity: the +Inf bucket of every histogram must equal
	// its _count.
	if !strings.Contains(out, `mccuckoo_kick_path_length_bucket{le="+Inf"} 1`) {
		t.Error("+Inf bucket missing or not cumulative")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	s := New()
	s.add(Event{Op: OpInsert, Status: uint8(kv.Placed), Kicks: 1, OffChip: 2, Nanos: 10, Shard: 3, KeyHash: 0xdead})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "mccuckoo_ops_total") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	code, body, _ = get("/debug/mccuckoo/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	for _, key := range []string{"uptime_seconds", "gauges", "counters", "histograms"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("/stats missing %q", key)
		}
	}

	code, body, _ = get("/debug/mccuckoo/events")
	if code != http.StatusOK {
		t.Fatalf("/events status %d", code)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	if len(evs) != 1 {
		t.Fatalf("/events has %d events, want 1", len(evs))
	}
	if evs[0]["op"] != "insert" || evs[0]["status"] != "placed" || evs[0]["shard"] != float64(3) {
		t.Fatalf("/events payload: %+v", evs[0])
	}

	if code, _, _ = get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", code)
	}
}

func TestPublishDedup(t *testing.T) {
	s := New()
	const name = "mccuckoo_test_publish_dedup"
	if err := s.Publish(name); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	if err := s.Publish(name); err == nil {
		t.Fatal("duplicate publish accepted")
	}
}
