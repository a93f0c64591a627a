package telemetry

import (
	"io"
	"net/http"
	"runtime"
)

// MetricsWriter is one contributor to a merged Prometheus exposition: any
// WritePrometheus-shaped func. Sink.WritePrometheus, wire.Server and
// cluster.Client WritePrometheus methods, and WriteRuntimeMetrics all fit.
type MetricsWriter func(io.Writer) error

// MergedHandler serves the concatenation of several Prometheus expositions
// as one /metrics endpoint. It replaces the ad-hoc handler-concatenation
// that used to live in cmd/mcserved: every serving binary builds its part
// list once and mounts a single handler. Nil parts are skipped, so callers
// can pass conditionally-present contributors unconditionally:
//
//	telemetry.MergedHandler(tel.WriteMetrics, srv.WritePrometheus, rep.WritePrometheus)
//
// Each writer's output must be self-contained (its own # HELP/# TYPE
// headers) and the writers must not share metric names. A writer error
// aborts the response mid-stream — with headers already sent, truncation is
// all that is left, and a partial scrape is visibly broken rather than
// silently missing series.
func MergedHandler(parts ...MetricsWriter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, part := range parts {
			if part == nil {
				continue
			}
			if err := part(w); err != nil {
				return
			}
		}
	})
}

// WriteRuntimeMetrics writes Go runtime health metrics — goroutines, heap,
// GC — in Prometheus exposition, under the mccuckoo_go_ prefix. It is the
// MergedHandler contributor that makes a serving process's resource health
// scrapeable next to its table and cluster metrics.
func WriteRuntimeMetrics(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics := []struct {
		name, help, typ string
		v               float64
	}{
		{"mccuckoo_go_goroutines", "Goroutines currently live.", "gauge", float64(runtime.NumGoroutine())},
		{"mccuckoo_go_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge", float64(ms.HeapAlloc)},
		{"mccuckoo_go_heap_sys_bytes", "Heap bytes obtained from the OS.", "gauge", float64(ms.HeapSys)},
		{"mccuckoo_go_heap_objects", "Live heap objects.", "gauge", float64(ms.HeapObjects)},
		{"mccuckoo_go_next_gc_bytes", "Heap size that triggers the next GC.", "gauge", float64(ms.NextGC)},
		{"mccuckoo_go_gc_runs_total", "Completed GC cycles.", "counter", float64(ms.NumGC)},
		{"mccuckoo_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", "counter", float64(ms.PauseTotalNs) / 1e9},
	}
	p := NewPromWriter(w)
	for _, m := range metrics {
		p.Header(m.name, m.help, m.typ)
		p.Float(m.name, "", m.v)
	}
	return p.Err()
}
