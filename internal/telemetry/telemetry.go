// Package telemetry is the always-on observability layer for the McCuckoo
// tables. A Sink accumulates the signals the paper's evaluation is built
// around — off-chip accesses per operation, kick-path lengths, the copy-count
// (redundancy) distribution — plus operational latency histograms, event
// counters, and a flight-recorder ring of the last N operations, and exports
// all of it in Prometheus text format, JSON, and expvar.
//
// Design constraints, in order:
//
//  1. A nil *Sink is the disabled state. Every method is nil-safe, and the
//     recording calls a table makes around each operation (Start, OffChip,
//     RecordInsert/RecordLookup/RecordDelete) inline to a nil check, so a
//     table without telemetry reads no clock, hashes no key and allocates
//     nothing on its hot path (asserted by TestDisabledPathZeroAlloc).
//  2. An enabled Sink is lock-free on the record path: counters and
//     histogram buckets are atomics, the flight recorder is a seqlock Ring,
//     and Event is a value — recording allocates nothing either.
//  3. Gauges (load ratio, copy-count distribution, stash depth/flag density)
//     come from GaugesOf, pulled at scrape time from a source the owning
//     table registers, or pushed by SampleGauges from single-writer tables
//     that cannot be read concurrently.
//
// The package sits below the public API and beside internal/shard: shard
// records from its lock layer, the public wrappers record for the
// single-writer tables, and cmd/mctrace records from its replay loop — each
// with one recording call per operation.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

// Op is the operation kind of one recorded event.
type Op uint8

const (
	OpInsert Op = iota
	OpLookup
	OpDelete
	opCount
)

// String returns the Prometheus label value for the op.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpLookup:
		return "lookup"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Event is one recorded operation. It is a plain value — building and
// recording one performs no allocation.
type Event struct {
	Op Op `json:"-"`
	// Status is the kv.Status of an insert (unused otherwise).
	Status uint8 `json:"-"`
	// Hit reports a found key: lookup hit, or delete that removed.
	Hit bool `json:"hit"`
	// Shard is the owning shard index, -1 for unsharded tables.
	Shard int32 `json:"shard"`
	// Kicks is the insert's kick-path length.
	Kicks int32 `json:"kicks"`
	// OffChip is the number of off-chip memory accesses the operation
	// performed (reads + writes).
	OffChip int64 `json:"off_chip"`
	// Nanos is the operation latency in nanoseconds (0 when the caller did
	// not time the op, e.g. inside batched operations).
	Nanos int64 `json:"nanos"`
	// KeyHash is a mixed hash of the operated key — enough to correlate
	// events on the same key without recording the key itself.
	KeyHash uint64 `json:"key_hash"`
}

// Gauges is the point-in-time state a scrape reports alongside the
// accumulated counters. The owning table supplies it, either live through
// SetGaugeSource (thread-safe tables) or pushed through SampleGauges
// (single-writer tables).
type Gauges struct {
	Items    int `json:"items"`
	Capacity int `json:"capacity"`
	// LoadRatio is distinct items over capacity, the paper's load metric.
	LoadRatio float64 `json:"load_ratio"`
	StashLen  int     `json:"stash_len"`
	// StashFlagDensity is the fraction of off-chip buckets whose stash flag
	// is set — the false-positive pressure on the stash pre-screen.
	StashFlagDensity float64 `json:"stash_flag_density"`
	// CopyHist[v] counts live items with v copies (index 0 unused): the
	// paper's redundancy balance. Fractions of occupied buckets at each V
	// are derived from it at export time.
	CopyHist []int64 `json:"copy_histogram,omitempty"`
	// Shards is the partition count, 0 for unsharded tables.
	Shards int `json:"shards,omitempty"`
	// MinShardLoad/MaxShardLoad expose the routing balance (0 when
	// unsharded or when every shard is empty).
	MinShardLoad float64 `json:"min_shard_load,omitempty"`
	MaxShardLoad float64 `json:"max_shard_load,omitempty"`
	// Ops are the table's lifetime operation counts, including the
	// auto-grow trigger outcomes.
	Ops kv.Stats `json:"ops"`
	// Detail carries table-specific extra state for the JSON endpoint
	// (e.g. per-shard statistics). Ignored by the Prometheus exporter.
	Detail any `json:"detail,omitempty"`
}

// GaugesOf samples tab's gauges: population, load, stash depth and
// lifetime stats from the kv.Table surface, plus the copy-count histogram
// and the stash-flag density when tab reports them (the McCuckoo tables do,
// the baselines do not). It reads tab through its own methods, so it is as
// safe for concurrent use as they are.
func GaugesOf(tab kv.Table) Gauges {
	g := Gauges{
		Items:     tab.Len(),
		Capacity:  tab.Capacity(),
		LoadRatio: tab.LoadRatio(),
		StashLen:  tab.StashLen(),
		Ops:       tab.Stats(),
	}
	if ch, ok := tab.(interface{ CopyHistogram() []int }); ok {
		hist := ch.CopyHistogram()
		g.CopyHist = make([]int64, len(hist))
		for v, n := range hist {
			g.CopyHist[v] = int64(n)
		}
	}
	if sf, ok := tab.(interface{ StashFlagDensity() float64 }); ok {
		g.StashFlagDensity = sf.StashFlagDensity()
	}
	return g
}

// eventRing is the flight-recorder capacity in events.
const eventRing = 1024

// Sink accumulates telemetry. All methods are safe for concurrent use and
// safe on a nil receiver (the disabled state).
type Sink struct {
	ops          [opCount]atomic.Int64
	insertStatus [4]atomic.Int64 // by kv.Status
	lookupHits   atomic.Int64
	lookupMisses atomic.Int64
	deletesHit   atomic.Int64

	latency   [opCount]Hist // ns, timed single ops only
	kicks     Hist          // per insert
	offInsert Hist          // off-chip accesses per insert
	offDelete Hist          // off-chip accesses per delete
	offPos    Hist          // off-chip accesses per positive lookup
	offNeg    Hist          // off-chip accesses per negative lookup

	corruptLoads atomic.Int64
	repairs      atomic.Int64
	repairDirty  atomic.Int64 // repairs that changed anything
	repairFixed  [6]atomic.Int64

	ring *Ring

	mu     sync.RWMutex
	source func() Gauges // live gauge source, nil when gauges are pushed
	cached Gauges        // last SampleGauges push

	started time.Time
}

// repairFixed slot names, aligned with the [6]atomic.Int64 above.
var repairKinds = [6]string{"counters", "flags", "hints", "aliens", "values", "stash_dropped"}

// New creates an enabled Sink.
func New() *Sink {
	return &Sink{ring: NewRing(eventRing, eventWords), started: time.Now()}
}

// Enabled reports whether the sink records anything (false on nil).
func (s *Sink) Enabled() bool { return s != nil }

// Start returns the start time of an operation the caller times: the zero
// time on a nil sink, so the disabled path reads no clock.
func (s *Sink) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// OffChip returns m's off-chip accesses so far (reads plus writes), or 0 on
// a nil sink; its difference across an operation is that operation's
// off-chip cost. The caller holds whatever lock guards m.
func (s *Sink) OffChip(m *memmodel.Meter) int64 {
	if s == nil {
		return 0
	}
	return m.OffChipReads + m.OffChipWrites
}

// OffChipLocked is OffChip for a caller that does not hold mu, the lock
// guarding m: it reads m under mu. A nil sink takes no lock.
func (s *Sink) OffChipLocked(mu sync.Locker, m *memmodel.Meter) int64 {
	if s == nil {
		return 0
	}
	mu.Lock()
	n := m.OffChipReads + m.OffChipWrites
	mu.Unlock()
	return n
}

// RecordInsert records one insert of key on shard (-1 for an unsharded
// table) with outcome o and offChip off-chip accesses. start is the
// operation's Start, or the zero time for an untimed operation (a key
// inside a batch). Like RecordLookup and RecordDelete, it is a nil check
// that inlines into the caller; the work happens in record.
func (s *Sink) RecordInsert(shard int, key uint64, o kv.Outcome, offChip int64, start time.Time) {
	if s != nil {
		s.record(OpInsert, uint8(o.Status), false, o.Kicks, shard, key, offChip, start)
	}
}

// RecordLookup records one lookup of key on shard; hit reports a found key.
// The other arguments are RecordInsert's.
func (s *Sink) RecordLookup(shard int, key uint64, hit bool, offChip int64, start time.Time) {
	if s != nil {
		s.record(OpLookup, 0, hit, 0, shard, key, offChip, start)
	}
}

// RecordDelete records one delete of key on shard; hit reports a removed
// key. The other arguments are RecordInsert's.
func (s *Sink) RecordDelete(shard int, key uint64, hit bool, offChip int64, start time.Time) {
	if s != nil {
		s.record(OpDelete, 0, hit, 0, shard, key, offChip, start)
	}
}

// record builds the operation's Event — latency measured from a nonzero
// start, before the key is hashed — and accumulates it.
func (s *Sink) record(op Op, status uint8, hit bool, kicks, shard int, key uint64, offChip int64, start time.Time) {
	var nanos int64
	if !start.IsZero() {
		nanos = time.Since(start).Nanoseconds()
	}
	s.add(Event{
		Op: op, Status: status, Hit: hit, Shard: int32(shard), Kicks: int32(kicks),
		OffChip: offChip, Nanos: nanos, KeyHash: hashutil.Mix64(key),
	})
}

// add accumulates one operation event: counters, the relevant histograms,
// and the flight recorder. It is lock-free and allocation-free.
func (s *Sink) add(e Event) {
	op := e.Op
	s.ops[op].Add(1)
	switch op {
	case OpInsert:
		if e.Status < 4 {
			s.insertStatus[e.Status].Add(1)
		}
		s.kicks.Observe(int64(e.Kicks))
		s.offInsert.Observe(e.OffChip)
	case OpLookup:
		if e.Hit {
			s.lookupHits.Add(1)
			s.offPos.Observe(e.OffChip)
		} else {
			s.lookupMisses.Add(1)
			s.offNeg.Observe(e.OffChip)
		}
	case OpDelete:
		if e.Hit {
			s.deletesHit.Add(1)
		}
		s.offDelete.Observe(e.OffChip)
	}
	if e.Nanos > 0 {
		s.latency[op].Observe(e.Nanos)
	}
	rec := packEvent(e)
	s.ring.Add(rec[:])
}

// RecordCorruptLoad counts one snapshot-load rejection (*atomicio.CorruptError).
func (s *Sink) RecordCorruptLoad() {
	if s == nil {
		return
	}
	s.corruptLoads.Add(1)
}

// RecordRepair accumulates one Repair pass report.
func (s *Sink) RecordRepair(r core.RepairReport) {
	if s == nil {
		return
	}
	s.repairs.Add(1)
	if r.Any() {
		s.repairDirty.Add(1)
	}
	for i, n := range [6]int{r.CountersFixed, r.FlagsFixed, r.HintsFixed,
		r.AliensCleared, r.ValuesFixed, r.StashDropped} {
		if n != 0 {
			s.repairFixed[i].Add(int64(n))
		}
	}
}

// SetGaugeSource registers a live gauge source called at scrape time. The
// source must be safe for concurrent use (the sharded table's is: it reads
// under the per-shard locks). Passing nil reverts to pushed gauges.
func (s *Sink) SetGaugeSource(fn func() Gauges) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.source = fn
	s.mu.Unlock()
}

// SampleGauges pushes GaugesOf(tab), for single-writer tables whose state
// cannot be read concurrently: the owning goroutine samples, scrapes serve
// the last sample. A nil sink reads nothing from tab.
func (s *Sink) SampleGauges(tab kv.Table) {
	if s == nil {
		return
	}
	g := GaugesOf(tab)
	s.mu.Lock()
	s.cached = g
	s.mu.Unlock()
}

// gauges returns the freshest gauge view: the live source when registered,
// otherwise the last pushed snapshot.
func (s *Sink) gauges() Gauges {
	s.mu.RLock()
	src := s.source
	cached := s.cached
	s.mu.RUnlock()
	if src != nil {
		return src()
	}
	return cached
}

// Events returns the flight-recorder contents, oldest first.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	out := make([]Event, 0, s.ring.Len())
	s.ring.Each(func(rec []uint64) { out = append(out, unpackEvent(rec)) })
	return out
}

// eventWords is the width of an event's ring record: key hash, latency,
// off-chip accesses, and the packed remaining fields.
const eventWords = 4

// packEvent lays e out as its ring record.
func packEvent(e Event) [eventWords]uint64 {
	var hit uint64
	if e.Hit {
		hit = 1
	}
	// Shard is stored as shard+1 in 18 bits so that -1 (unsharded) packs to
	// 0 and the full MaxShards index range (0..65535) survives the round
	// trip.
	packed := uint64(uint32(e.Kicks))<<26 |
		uint64(uint32(e.Shard+1)&0x3ffff)<<8 |
		uint64(e.Status&0xf)<<4 |
		uint64(e.Op&0x7)<<1 |
		hit
	return [eventWords]uint64{e.KeyHash, uint64(e.Nanos), uint64(e.OffChip), packed}
}

// unpackEvent is packEvent's inverse.
func unpackEvent(rec []uint64) Event {
	packed := rec[3]
	return Event{
		Op:      Op(packed >> 1 & 0x7),
		Status:  uint8(packed >> 4 & 0xf),
		Hit:     packed&1 != 0,
		Shard:   int32(packed>>8&0x3ffff) - 1,
		Kicks:   int32(uint32(packed >> 26)),
		OffChip: int64(rec[2]),
		Nanos:   int64(rec[1]),
		KeyHash: rec[0],
	}
}

// counterSnapshot is the JSON view of the accumulated counters.
type counterSnapshot struct {
	Inserts      int64            `json:"inserts"`
	Lookups      int64            `json:"lookups"`
	Deletes      int64            `json:"deletes"`
	InsertStatus map[string]int64 `json:"insert_status"`
	LookupHits   int64            `json:"lookup_hits"`
	LookupMisses int64            `json:"lookup_misses"`
	DeletesHit   int64            `json:"deletes_hit"`
	CorruptLoads int64            `json:"corrupt_loads"`
	Repairs      int64            `json:"repairs"`
	RepairsDirty int64            `json:"repairs_dirty"`
	RepairFixed  map[string]int64 `json:"repair_fixed"`
}

func (s *Sink) counters() counterSnapshot {
	c := counterSnapshot{
		Inserts:      s.ops[OpInsert].Load(),
		Lookups:      s.ops[OpLookup].Load(),
		Deletes:      s.ops[OpDelete].Load(),
		InsertStatus: make(map[string]int64, 4),
		LookupHits:   s.lookupHits.Load(),
		LookupMisses: s.lookupMisses.Load(),
		DeletesHit:   s.deletesHit.Load(),
		CorruptLoads: s.corruptLoads.Load(),
		Repairs:      s.repairs.Load(),
		RepairsDirty: s.repairDirty.Load(),
		RepairFixed:  make(map[string]int64, 6),
	}
	for st := kv.Status(0); st < 4; st++ {
		c.InsertStatus[st.String()] = s.insertStatus[st].Load()
	}
	for i, name := range repairKinds {
		c.RepairFixed[name] = s.repairFixed[i].Load()
	}
	return c
}

// Snapshot is the full JSON view served at /debug/mccuckoo/stats.
type Snapshot struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Gauges        Gauges                  `json:"gauges"`
	Counters      counterSnapshot         `json:"counters"`
	Histograms    map[string]HistSnapshot `json:"histograms"`
}

// Snapshot assembles the current state. Nil-safe (returns a zero snapshot).
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Gauges:        s.gauges(),
		Counters:      s.counters(),
		Histograms: map[string]HistSnapshot{
			"latency_insert_ns":  s.latency[OpInsert].Snapshot(),
			"latency_lookup_ns":  s.latency[OpLookup].Snapshot(),
			"latency_delete_ns":  s.latency[OpDelete].Snapshot(),
			"kick_path_length":   s.kicks.Snapshot(),
			"offchip_per_insert": s.offInsert.Snapshot(),
			"offchip_per_delete": s.offDelete.Snapshot(),
			"offchip_lookup_pos": s.offPos.Snapshot(),
			"offchip_lookup_neg": s.offNeg.Snapshot(),
		},
	}
}
