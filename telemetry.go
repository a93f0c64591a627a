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
// one nil check per operation and allocates nothing (the disabled path is
// gated by benchmark in ci.sh).
//
// A Telemetry observes one table: attaching it to several merges their event
// streams but the gauges report only the last table attached.
type Telemetry struct {
	sink *telemetry.Sink
}

// TelemetryOption configures NewTelemetry.
type TelemetryOption func(*telemetry.Options)

// WithEventBuffer sets the flight-recorder capacity (rounded up to a power
// of two; default 1024).
func WithEventBuffer(n int) TelemetryOption {
	return func(o *telemetry.Options) { o.EventBuffer = n }
}

// NewTelemetry creates an enabled telemetry collector.
func NewTelemetry(opts ...TelemetryOption) *Telemetry {
	var o telemetry.Options
	for _, opt := range opts {
		opt(&o)
	}
	return &Telemetry{sink: telemetry.New(o)}
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

// gauges assembles a gauge snapshot from the table's inspection surface.
// Must be called by the owning goroutine.
func (s *singleStore) gauges() telemetry.Gauges {
	hist := s.CopyHistogram()
	copyHist := make([]int64, len(hist))
	for v, n := range hist {
		copyHist[v] = int64(n)
	}
	return telemetry.Gauges{
		Items:            s.Len(),
		Capacity:         s.Capacity(),
		LoadRatio:        s.LoadRatio(),
		StashLen:         s.StashLen(),
		StashFlagDensity: s.StashFlagDensity(),
		CopyHist:         copyHist,
		Ops:              s.inner.Stats(),
	}
}

// SampleTelemetry pushes the table's current gauge values (load, copy-count
// distribution, stash depth and flag density, lifetime stats) to the
// attached telemetry. Call it from the goroutine that owns the table —
// typically every few thousand operations, and once after a load phase.
// No-op without attached telemetry.
func (s *singleStore) SampleTelemetry() {
	if s.sink == nil {
		return
	}
	s.sink.StoreGauges(s.gauges())
}
