package telemetry

import (
	"fmt"
	"io"
	"strconv"

	"mccuckoo/internal/kv"
)

// PromWriter writes Prometheus text exposition (version 0.0.4) without any
// client library: the format is plain text and every metric set is fixed.
// Every exposition in the repo writes through it. The first write error
// ends the output; Err reports it.
//
// The Sink's metric names, all under the mccuckoo_ prefix:
//
//	mccuckoo_ops_total{op}                          counter
//	mccuckoo_inserts_total{status}                  counter
//	mccuckoo_lookups_total{result}                  counter
//	mccuckoo_deletes_removed_total                  counter
//	mccuckoo_corrupt_loads_total                    counter
//	mccuckoo_repairs_total / repairs_dirty_total    counter
//	mccuckoo_repair_fixed_total{kind}               counter
//	mccuckoo_autogrow_{attempts,success,failures}_total (from table stats)
//	mccuckoo_stash_probes_total                     counter (from table stats)
//	mccuckoo_op_latency_seconds{op}                 histogram
//	mccuckoo_kick_path_length                       histogram
//	mccuckoo_offchip_accesses_per_insert            histogram
//	mccuckoo_offchip_accesses_per_delete            histogram
//	mccuckoo_offchip_accesses_per_lookup{result}    histogram
//	mccuckoo_items / capacity / load_ratio          gauge
//	mccuckoo_stash_len / stash_flag_density         gauge
//	mccuckoo_copy_count_items{copies}               gauge
//	mccuckoo_copy_bucket_fraction{copies}           gauge
//	mccuckoo_shards / shard_load_{min,max}          gauge
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a PromWriter writing to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header writes a series' HELP and TYPE lines.
func (p *PromWriter) Header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Int writes one integer sample; labels is a braced label set or "".
func (p *PromWriter) Int(name, labels string, v int64) {
	p.printf("%s%s %d\n", name, labels, v)
}

// Float writes one float sample in the shortest form that reads back
// exactly; labels is a braced label set or "".
func (p *PromWriter) Float(name, labels string, v float64) {
	p.printf("%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// Simple writes a series of one unlabeled integer sample, header included.
func (p *PromWriter) Simple(name, help, typ string, v int64) {
	p.Header(name, help, typ)
	p.Int(name, "", v)
}

// Label returns the braced label set of one label, {key="val"}.
func Label(key, val string) string { return promLabels("", key, val) }

// Hist writes one histogram in cumulative-bucket form. labels is a raw
// label list ("op=\"insert\"" or ""); scale divides the raw bucket bounds
// (1e9 turns nanosecond buckets into seconds). Empty buckets between
// populated ones are elided to keep the exposition small; Prometheus
// interpolates cumulative buckets, so elision loses nothing.
func (p *PromWriter) Hist(name, labels string, s HistSnapshot, scale float64) {
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		n := s.Buckets[i]
		cum += n
		if n == 0 && i != histBuckets-1 {
			continue
		}
		le := "+Inf"
		if ub := s.UpperBound(i); ub >= 0 {
			le = strconv.FormatFloat(float64(ub)/scale, 'g', -1, 64)
		}
		p.printf("%s_bucket%s %d\n", name, promLabels(labels, "le", le), cum)
	}
	p.printf("%s_sum%s %s\n", name, braced(labels), strconv.FormatFloat(float64(s.Sum)/scale, 'g', -1, 64))
	p.printf("%s_count%s %d\n", name, braced(labels), s.Count)
}

// promLabels merges a base label list ("op=\"insert\"" or "") with one extra
// label into a braced label set.
func promLabels(base, key, val string) string {
	if base == "" {
		return fmt.Sprintf("{%s=%q}", key, val)
	}
	return fmt.Sprintf("{%s,%s=%q}", base, key, val)
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// WritePrometheus writes the full exposition. Nil-safe: a nil sink writes
// nothing and returns nil.
func (s *Sink) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	snap := s.Snapshot()
	p := NewPromWriter(w)

	p.Header("mccuckoo_ops_total", "Operations recorded, by kind.", "counter")
	for op := Op(0); op < opCount; op++ {
		p.Int("mccuckoo_ops_total", fmt.Sprintf("{op=%q}", op.String()), s.ops[op].Load())
	}
	p.Header("mccuckoo_inserts_total", "Insert outcomes, by status.", "counter")
	for st := kv.Status(0); st < 4; st++ {
		p.Int("mccuckoo_inserts_total", fmt.Sprintf("{status=%q}", st.String()),
			s.insertStatus[st].Load())
	}
	p.Header("mccuckoo_lookups_total", "Lookups, by result.", "counter")
	p.Int("mccuckoo_lookups_total", `{result="hit"}`, snap.Counters.LookupHits)
	p.Int("mccuckoo_lookups_total", `{result="miss"}`, snap.Counters.LookupMisses)
	p.Simple("mccuckoo_deletes_removed_total", "Deletes that removed a live key.", "counter", snap.Counters.DeletesHit)

	p.Simple("mccuckoo_corrupt_loads_total", "Snapshot loads rejected as corrupt.", "counter", snap.Counters.CorruptLoads)
	p.Simple("mccuckoo_repairs_total", "Repair passes run.", "counter", snap.Counters.Repairs)
	p.Simple("mccuckoo_repairs_dirty_total", "Repair passes that changed state.", "counter", snap.Counters.RepairsDirty)
	p.Header("mccuckoo_repair_fixed_total", "Repair fixes applied, by kind.", "counter")
	for _, kind := range repairKinds {
		p.Int("mccuckoo_repair_fixed_total", fmt.Sprintf("{kind=%q}", kind), snap.Counters.RepairFixed[kind])
	}

	// Lifetime table stats surfaced as counters: they are monotonic on the
	// table, so scrapes see valid counter semantics even though the values
	// come from the gauge source.
	ops := snap.Gauges.Ops
	p.Simple("mccuckoo_autogrow_attempts_total", "Grow calls made by the auto-grow policy.", "counter", ops.GrowAttempts)
	p.Simple("mccuckoo_autogrow_success_total", "Auto-grow episodes that drained the stash under threshold.", "counter", ops.Grows)
	p.Simple("mccuckoo_autogrow_failures_total", "Grow calls that returned an error.", "counter", ops.GrowFailures)
	p.Simple("mccuckoo_stash_probes_total", "Lookups/deletes that had to consult the stash.", "counter", ops.StashProbe)
	p.Simple("mccuckoo_table_kicks_total", "Total kick-outs performed by inserts.", "counter", ops.Kicks)

	p.Header("mccuckoo_op_latency_seconds", "Per-operation latency (timed single ops).", "histogram")
	for op := Op(0); op < opCount; op++ {
		p.Hist("mccuckoo_op_latency_seconds", fmt.Sprintf("op=%q", op.String()),
			s.latency[op].Snapshot(), 1e9)
	}
	// The next four histograms are dimensionless by design — they count
	// kicks and memory touches, the paper's §IV cost metrics, not time —
	// so the _seconds histogram convention does not apply. Renaming them
	// would break every recorded scrape and the exporter tests.
	//mcvet:allow metriclint kick-path length counts hops per insert, not a duration
	p.Header("mccuckoo_kick_path_length", "Kick-path length per insert.", "histogram")
	p.Hist("mccuckoo_kick_path_length", "", s.kicks.Snapshot(), 1)
	//mcvet:allow metriclint off-chip access histogram counts memory touches, not a duration
	p.Header("mccuckoo_offchip_accesses_per_insert", "Off-chip memory accesses per insert.", "histogram")
	p.Hist("mccuckoo_offchip_accesses_per_insert", "", s.offInsert.Snapshot(), 1)
	//mcvet:allow metriclint off-chip access histogram counts memory touches, not a duration
	p.Header("mccuckoo_offchip_accesses_per_delete", "Off-chip memory accesses per delete.", "histogram")
	p.Hist("mccuckoo_offchip_accesses_per_delete", "", s.offDelete.Snapshot(), 1)
	//mcvet:allow metriclint off-chip access histogram counts memory touches, not a duration
	p.Header("mccuckoo_offchip_accesses_per_lookup", "Off-chip memory accesses per lookup, split by result.", "histogram")
	p.Hist("mccuckoo_offchip_accesses_per_lookup", `result="positive"`, s.offPos.Snapshot(), 1)
	p.Hist("mccuckoo_offchip_accesses_per_lookup", `result="negative"`, s.offNeg.Snapshot(), 1)

	g := snap.Gauges
	p.Header("mccuckoo_items", "Distinct live items (stash included).", "gauge")
	p.Float("mccuckoo_items", "", float64(g.Items))
	p.Header("mccuckoo_capacity", "Total main-table slots.", "gauge")
	p.Float("mccuckoo_capacity", "", float64(g.Capacity))
	p.Header("mccuckoo_load_ratio", "Items over capacity, the paper's load metric.", "gauge")
	p.Float("mccuckoo_load_ratio", "", g.LoadRatio)
	p.Header("mccuckoo_stash_len", "Items currently in the overflow stash.", "gauge")
	p.Float("mccuckoo_stash_len", "", float64(g.StashLen))
	p.Header("mccuckoo_stash_flag_density", "Fraction of buckets with the stash flag set.", "gauge")
	p.Float("mccuckoo_stash_flag_density", "", g.StashFlagDensity)

	if len(g.CopyHist) > 0 {
		occupied := int64(0)
		for v := 1; v < len(g.CopyHist); v++ {
			occupied += int64(v) * g.CopyHist[v]
		}
		p.Header("mccuckoo_copy_count_items", "Live items by copy count (the redundancy distribution).", "gauge")
		for v := 1; v < len(g.CopyHist); v++ {
			p.Float("mccuckoo_copy_count_items", fmt.Sprintf("{copies=%q}", strconv.Itoa(v)), float64(g.CopyHist[v]))
		}
		p.Header("mccuckoo_copy_bucket_fraction", "Fraction of occupied buckets holding items with V copies.", "gauge")
		for v := 1; v < len(g.CopyHist); v++ {
			frac := 0.0
			if occupied > 0 {
				frac = float64(int64(v)*g.CopyHist[v]) / float64(occupied)
			}
			p.Float("mccuckoo_copy_bucket_fraction", fmt.Sprintf("{copies=%q}", strconv.Itoa(v)), frac)
		}
	}

	if g.Shards > 0 {
		p.Header("mccuckoo_shards", "Partition count.", "gauge")
		p.Float("mccuckoo_shards", "", float64(g.Shards))
		p.Header("mccuckoo_shard_load_min", "Lowest per-shard load ratio.", "gauge")
		p.Float("mccuckoo_shard_load_min", "", g.MinShardLoad)
		p.Header("mccuckoo_shard_load_max", "Highest per-shard load ratio.", "gauge")
		p.Float("mccuckoo_shard_load_max", "", g.MaxShardLoad)
	}

	p.Header("mccuckoo_uptime_seconds", "Seconds since the sink was created.", "gauge")
	p.Float("mccuckoo_uptime_seconds", "", snap.UptimeSeconds)
	return p.Err()
}
