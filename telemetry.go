package mccuckoo

import (
	"io"
	"net/http"

	"mccuckoo/internal/telemetry"
)

// Telemetry is the live observability surface of a table: atomic event
// counters, log2-bucketed histograms for per-op latency, kick-path length,
// and off-chip accesses per operation (lookups split positive/negative), the
// paper's copy-count distribution and stash gauges, and a flight-recorder
// ring of the last N operations. Attach one to a table with WithTelemetry
// and mount Handler on any HTTP server:
//
//	tel := mccuckoo.NewTelemetry()
//	table, _ := mccuckoo.NewSharded(1<<20, 16, mccuckoo.WithTelemetry(tel))
//	http.ListenAndServe(":8080", tel.Handler())
//	// curl localhost:8080/metrics
//
// Recording is lock-free and allocation-free; a table without telemetry pays
// a few inlined nil checks per operation, reads no clock, hashes no key and
// allocates nothing (TestDisabledPathZeroAlloc and TestSingleWriterZeroAlloc
// assert it).
//
// A Telemetry observes one table: attaching it to several merges their event
// streams but the gauges report only the last table attached.
type Telemetry struct {
	sink *telemetry.Sink
}

// NewTelemetry creates an enabled telemetry collector. Its flight recorder
// holds the last 1024 operations.
func NewTelemetry() *Telemetry {
	return &Telemetry{sink: telemetry.New()}
}

// Handler returns the HTTP scrape surface:
//
//	/metrics                 Prometheus text exposition format
//	/debug/mccuckoo/stats    full JSON snapshot (gauges, counters, histograms)
//	/debug/mccuckoo/events   the flight recorder as a JSON array, oldest first
func (t *Telemetry) Handler() http.Handler { return t.sink.Handler() }

// WriteMetrics writes the Prometheus text exposition to w, for scrapeless
// use (tests, one-shot dumps).
func (t *Telemetry) WriteMetrics(w io.Writer) error { return t.sink.WritePrometheus(w) }

// Publish registers the telemetry snapshot under name in the process-wide
// expvar registry (visible at /debug/vars). Names must be process-unique;
// a duplicate returns an error.
func (t *Telemetry) Publish(name string) error { return t.sink.Publish(name) }

// WithTelemetry attaches tel to the table being built: every operation is
// recorded (counters, histograms, flight recorder) and the table's gauges
// back tel's exporters.
//
// For Sharded tables the gauges are live — every scrape reads the current
// state under the per-shard locks. Table and Blocked are single-writer
// structures that cannot be read concurrently, so their gauges are sampled:
// the owning goroutine calls SampleTelemetry whenever fresh gauge values
// should be visible to scrapes (histograms and counters are always live).
//
// The same option is accepted by the Load functions, where it additionally
// counts *CorruptError rejections in the corrupt-load counter.
func WithTelemetry(tel *Telemetry) Option {
	return func(c *config) error {
		c.tel = tel
		return nil
	}
}

// SampleTelemetry pushes the table's current gauge values (load, copy-count
// distribution, stash depth and flag density, lifetime stats) to the
// attached telemetry. Call it from the goroutine that owns the table —
// typically every few thousand operations, and once after a load phase.
// No-op without attached telemetry.
func (s *singleStore) SampleTelemetry() { s.sink.SampleGauges(s.inner) }
