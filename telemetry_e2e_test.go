package mccuckoo

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTelemetryEndToEndSharded drives an instrumented sharded table through
// the full public surface — traffic, repair, snapshot corruption — and then
// scrapes the Prometheus endpoint, asserting every metric family ISSUE'd for
// this milestone is actually served.
func TestTelemetryEndToEndSharded(t *testing.T) {
	tel := NewTelemetry()
	s, err := NewSharded(4096, 4, WithSeed(7), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 2000; k++ {
		s.Insert(k, k*2)
	}
	for k := uint64(1); k <= 100; k++ {
		s.Lookup(k)            // positive
		s.Lookup(k + 10_000_0) // negative
	}
	s.Delete(1)
	s.Repair()

	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	metrics := string(body)
	for _, want := range []string{
		"mccuckoo_ops_total{op=\"insert\"}",
		"mccuckoo_ops_total{op=\"lookup\"}",
		"mccuckoo_ops_total{op=\"delete\"}",
		"mccuckoo_op_latency_seconds_bucket",
		"mccuckoo_kick_path_length_bucket",
		"mccuckoo_offchip_accesses_per_lookup_count{result=\"positive\"}",
		"mccuckoo_offchip_accesses_per_lookup_count{result=\"negative\"}",
		"mccuckoo_offchip_accesses_per_insert",
		"mccuckoo_copy_count_items{copies=\"1\"}",
		"mccuckoo_items",
		"mccuckoo_load_ratio",
		"mccuckoo_stash_len",
		"mccuckoo_stash_flag_density",
		"mccuckoo_autogrow_attempts_total",
		"mccuckoo_autogrow_success_total",
		"mccuckoo_autogrow_failures_total",
		"mccuckoo_repairs_total 1",
		"mccuckoo_corrupt_loads_total 0",
		"mccuckoo_shards 4",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/mccuckoo/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"counters"`, `"gauges"`, `"histograms"`, `"lookup_hits"`} {
		if !strings.Contains(string(stats), want) {
			t.Errorf("/stats missing %q", want)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/mccuckoo/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(events), `"op"`) {
		t.Errorf("/events missing op field: %s", events)
	}
}

// TestTelemetryCorruptLoadCounted corrupts a snapshot byte and checks the
// rejected load shows up as mccuckoo_corrupt_loads_total.
func TestTelemetryCorruptLoadCounted(t *testing.T) {
	src, err := New(1024, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		src.Insert(k, k)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xff

	tel := NewTelemetry()
	if _, err := Load(bytes.NewReader(raw), WithTelemetry(tel)); err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	}
	var out bytes.Buffer
	if err := tel.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mccuckoo_corrupt_loads_total 1") {
		t.Fatalf("corrupt load not counted:\n%s", out.String())
	}
}

// TestTelemetrySingleTableSample checks the pushed-gauge path used by the
// single-writer kinds: SampleTelemetry publishes the current occupancy.
func TestTelemetrySingleTableSample(t *testing.T) {
	tel := NewTelemetry()
	tab, err := New(2048, WithSeed(5), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 300; k++ {
		tab.Insert(k, k)
	}
	tab.SampleTelemetry()
	var out bytes.Buffer
	if err := tel.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	metrics := out.String()
	if !strings.Contains(metrics, "mccuckoo_items 300") {
		t.Fatalf("items gauge not updated:\n%s", metrics)
	}
	if !strings.Contains(metrics, "mccuckoo_ops_total{op=\"insert\"} 300") {
		t.Fatalf("insert counter missing:\n%s", metrics)
	}

	b, err := NewBlocked(2048, WithSeed(5), WithTelemetry(NewTelemetry()))
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(1, 1)
	b.SampleTelemetry() // must not panic and must reflect the blocked table
}

// TestSingleCachedMeterSurvivesGrowAndRepair: the single-writer wrapper's
// cached meter pointer is still its table's meter after Grow and Repair
// rebuild the table in place.
func TestSingleCachedMeterSurvivesGrowAndRepair(t *testing.T) {
	tab, err := New(512, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBlocked(512, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*singleStore{"table": &tab.singleStore, "blocked": &b.singleStore} {
		for k := uint64(1); k <= 400; k++ {
			s.Insert(k, k)
		}
		if err := s.Grow(2); err != nil {
			t.Fatal(err)
		}
		s.Repair()
		if s.meter != s.inner.Meter() {
			t.Fatalf("%s: cached meter is not its table's after Grow and Repair", name)
		}
	}
}
