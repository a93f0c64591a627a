package telemetry

import (
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMergedHandler(t *testing.T) {
	a := func(w io.Writer) error { _, err := io.WriteString(w, "part_a 1\n"); return err }
	b := func(w io.Writer) error { _, err := io.WriteString(w, "part_b 2\n"); return err }
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	MergedHandler(a, nil, b).ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if got := rec.Body.String(); got != "part_a 1\npart_b 2\n" {
		t.Fatalf("merged body:\n%s", got)
	}

	// A failing part truncates: later parts must not run (their series
	// appearing after a hole would make the truncation invisible).
	boom := func(w io.Writer) error { return errors.New("boom") }
	rec = httptest.NewRecorder()
	MergedHandler(a, boom, b).ServeHTTP(rec, req)
	if got := rec.Body.String(); got != "part_a 1\n" {
		t.Fatalf("body after failing part:\n%s", got)
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var sb strings.Builder
	if err := WriteRuntimeMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"mccuckoo_go_goroutines",
		"mccuckoo_go_heap_alloc_bytes",
		"mccuckoo_go_gc_pause_seconds_total",
		"# TYPE mccuckoo_go_gc_runs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteHistogram(t *testing.T) {
	var h Hist
	h.Observe(1500) // ns
	h.Observe(3_000_000)
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Header("test_seconds", "help text", "histogram")
	p.Hist("test_seconds", `peer="a"`, h.Snapshot(), 1e9)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_count{peer="a"} 2`,
		`test_seconds_bucket{peer="a",le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram exposition missing %q in:\n%s", want, out)
		}
	}
}
