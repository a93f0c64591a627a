package mccuckoo

import (
	"io"
	"time"

	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/telemetry"
)

// Table is the single-slot McCuckoo hash table: d hash functions, one item
// per bucket, a 2-bit copy counter per bucket (for the default d = 3), an
// off-chip stash with flag pre-screening. Keys and values are 64-bit; use
// Map for arbitrary key types.
//
// A Table is not safe for concurrent use; wrap it with NewConcurrent for
// one-writer-many-readers access.
type Table struct {
	inner *core.Table
	// sink is the attached telemetry collector; nil means telemetry is off
	// and every operation takes the plain path (one nil check, no
	// allocation).
	sink *telemetry.Sink
}

// New creates a single-slot table with roughly `capacity` buckets in total
// (rounded up to a multiple of the hash-function count).
func New(capacity int, opts ...Option) (*Table, error) {
	cfg, tel, err := buildConfig(capacity, false, opts)
	if err != nil {
		return nil, err
	}
	cfg.Slots = 1
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{inner: inner}
	t.attachTelemetry(tel)
	return t, nil
}

// attachTelemetry wires tel into the table (no-op for nil). The gauges of a
// single-writer table are pushed, not pulled — see SampleTelemetry.
func (t *Table) attachTelemetry(tel *Telemetry) {
	if tel == nil {
		return
	}
	t.sink = tel.sink
	t.SampleTelemetry()
}

// offChip returns the table's lifetime off-chip access count; deltas around
// an operation give that operation's off-chip cost. Single-writer, so
// reading the meter between operations is safe.
func (t *Table) offChip() int64 {
	m := t.inner.Meter()
	return m.OffChipReads + m.OffChipWrites
}

// Insert stores key/value, replacing the value if key is already present
// (unless WithUniqueKeys was set).
func (t *Table) Insert(key, value uint64) InsertResult {
	if t.sink == nil {
		return fromOutcome(t.inner.Insert(key, value))
	}
	before, start := t.offChip(), time.Now()
	o := t.inner.Insert(key, value)
	t.sink.Record(telemetry.Event{
		Op: telemetry.OpInsert, Status: uint8(o.Status), Shard: -1,
		Kicks: int32(o.Kicks), OffChip: t.offChip() - before,
		Nanos: time.Since(start).Nanoseconds(), KeyHash: hashutil.Mix64(key),
	})
	return fromOutcome(o)
}

// Lookup returns the value stored for key.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	if t.sink == nil {
		return t.inner.Lookup(key)
	}
	before, start := t.offChip(), time.Now()
	v, ok := t.inner.Lookup(key)
	t.sink.Record(telemetry.Event{
		Op: telemetry.OpLookup, Hit: ok, Shard: -1,
		OffChip: t.offChip() - before,
		Nanos:   time.Since(start).Nanoseconds(), KeyHash: hashutil.Mix64(key),
	})
	return v, ok
}

// Delete removes key, reporting whether it was present. Deletion resets
// counters only — it performs zero off-chip writes.
func (t *Table) Delete(key uint64) bool {
	if t.sink == nil {
		return t.inner.Delete(key)
	}
	before, start := t.offChip(), time.Now()
	ok := t.inner.Delete(key)
	t.sink.Record(telemetry.Event{
		Op: telemetry.OpDelete, Hit: ok, Shard: -1,
		OffChip: t.offChip() - before,
		Nanos:   time.Since(start).Nanoseconds(), KeyHash: hashutil.Mix64(key),
	})
	return ok
}

// Len returns the number of live items, stash included.
func (t *Table) Len() int { return t.inner.Len() }

// Capacity returns the total bucket count.
func (t *Table) Capacity() int { return t.inner.Capacity() }

// LoadRatio returns Len()/Capacity().
func (t *Table) LoadRatio() float64 { return t.inner.LoadRatio() }

// StashLen returns the current stash population.
func (t *Table) StashLen() int { return t.inner.StashLen() }

// Copies returns the number of live physical copies in the main table; the
// surplus over Len()-StashLen() is the redundancy maintained for placement
// flexibility.
func (t *Table) Copies() int { return t.inner.Copies() }

// OnChipBytes returns the size of the counter array — the fast-memory
// footprint the scheme requires (2 bits per bucket for d = 3).
func (t *Table) OnChipBytes() int { return t.inner.OnChipBytes() }

// RefreshStashFlags resynchronizes the stash flags after deletions by
// clearing them and reinserting every stashed item; it returns how many
// items moved back into the main table.
func (t *Table) RefreshStashFlags() int { return t.inner.RefreshStashFlags() }

// Traffic returns the accumulated memory-access counts.
func (t *Table) Traffic() Traffic {
	m := t.inner.Meter().Snapshot()
	return Traffic{m.OffChipReads, m.OffChipWrites, m.OnChipReads, m.OnChipWrites}
}

// Stats returns lifetime operation counts.
func (t *Table) Stats() Stats { return fromStats(t.inner.Stats()) }

// Blocked is the multi-slot McCuckoo table (B-McCuckoo): l slots per bucket
// with one counter per slot and per-copy slot hints. It reaches load ratios
// close to 100% (Table III operates at 99–100%).
type Blocked struct {
	inner *core.BlockedTable
	// sink is the attached telemetry collector; nil means telemetry is off.
	sink *telemetry.Sink
}

// NewBlocked creates a blocked table with roughly `capacity` slots in total.
func NewBlocked(capacity int, opts ...Option) (*Blocked, error) {
	cfg, tel, err := buildConfig(capacity, true, opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewBlocked(cfg)
	if err != nil {
		return nil, err
	}
	t := &Blocked{inner: inner}
	t.attachTelemetry(tel)
	return t, nil
}

// attachTelemetry wires tel into the blocked table (no-op for nil).
func (t *Blocked) attachTelemetry(tel *Telemetry) {
	if tel == nil {
		return
	}
	t.sink = tel.sink
	t.SampleTelemetry()
}

// offChip returns the lifetime off-chip access count (see Table.offChip).
func (t *Blocked) offChip() int64 {
	m := t.inner.Meter()
	return m.OffChipReads + m.OffChipWrites
}

// Insert stores key/value, replacing the value if key is already present
// (unless WithUniqueKeys was set).
func (t *Blocked) Insert(key, value uint64) InsertResult {
	if t.sink == nil {
		return fromOutcome(t.inner.Insert(key, value))
	}
	before, start := t.offChip(), time.Now()
	o := t.inner.Insert(key, value)
	t.sink.Record(telemetry.Event{
		Op: telemetry.OpInsert, Status: uint8(o.Status), Shard: -1,
		Kicks: int32(o.Kicks), OffChip: t.offChip() - before,
		Nanos: time.Since(start).Nanoseconds(), KeyHash: hashutil.Mix64(key),
	})
	return fromOutcome(o)
}

// Lookup returns the value stored for key.
func (t *Blocked) Lookup(key uint64) (uint64, bool) {
	if t.sink == nil {
		return t.inner.Lookup(key)
	}
	before, start := t.offChip(), time.Now()
	v, ok := t.inner.Lookup(key)
	t.sink.Record(telemetry.Event{
		Op: telemetry.OpLookup, Hit: ok, Shard: -1,
		OffChip: t.offChip() - before,
		Nanos:   time.Since(start).Nanoseconds(), KeyHash: hashutil.Mix64(key),
	})
	return v, ok
}

// Delete removes key with zero off-chip writes.
func (t *Blocked) Delete(key uint64) bool {
	if t.sink == nil {
		return t.inner.Delete(key)
	}
	before, start := t.offChip(), time.Now()
	ok := t.inner.Delete(key)
	t.sink.Record(telemetry.Event{
		Op: telemetry.OpDelete, Hit: ok, Shard: -1,
		OffChip: t.offChip() - before,
		Nanos:   time.Since(start).Nanoseconds(), KeyHash: hashutil.Mix64(key),
	})
	return ok
}

// Len returns the number of live items, stash included.
func (t *Blocked) Len() int { return t.inner.Len() }

// Capacity returns the total slot count.
func (t *Blocked) Capacity() int { return t.inner.Capacity() }

// LoadRatio returns Len()/Capacity().
func (t *Blocked) LoadRatio() float64 { return t.inner.LoadRatio() }

// StashLen returns the current stash population.
func (t *Blocked) StashLen() int { return t.inner.StashLen() }

// Copies returns the number of live physical copies in the main table.
func (t *Blocked) Copies() int { return t.inner.Copies() }

// OnChipBytes returns the size of the counter array.
func (t *Blocked) OnChipBytes() int { return t.inner.OnChipBytes() }

// RefreshStashFlags resynchronizes the stash flags after deletions.
func (t *Blocked) RefreshStashFlags() int { return t.inner.RefreshStashFlags() }

// Traffic returns the accumulated memory-access counts.
func (t *Blocked) Traffic() Traffic {
	m := t.inner.Meter().Snapshot()
	return Traffic{m.OffChipReads, m.OffChipWrites, m.OnChipReads, m.OnChipWrites}
}

// Stats returns lifetime operation counts.
func (t *Blocked) Stats() Stats { return fromStats(t.inner.Stats()) }

// InsertPathwise inserts using two-phase cuckoo-path execution at slot
// granularity, exactly as Table.InsertPathwise.
func (t *Blocked) InsertPathwise(key, value uint64) InsertResult {
	return fromOutcome(t.inner.InsertPathwise(key, value))
}

// Compile-time checks that the public Status values mirror internal ones.
var _ = [1]struct{}{}[Status(kv.Placed)-Placed]
var _ = [1]struct{}{}[Status(kv.Updated)-Updated]
var _ = [1]struct{}{}[Status(kv.Stashed)-Stashed]
var _ = [1]struct{}{}[Status(kv.Failed)-Failed]

// Grow rebuilds the table with a fresh hash family and growFactor times the
// capacity (>= 1; Grow(1) rehashes in place and re-absorbs the stash). This
// is the expensive operation the stash exists to avoid; use it when the
// table must actually get bigger.
func (t *Table) Grow(growFactor float64) error { return t.inner.Grow(growFactor) }

// InsertPathwise inserts using two-phase cuckoo-path execution: the
// relocation path is discovered first, then applied one bounded step at a
// time, with the table in a fully consistent state between steps.
// Functionally equivalent to Insert; Concurrent.InsertPathwise exploits the
// bounded steps to interleave readers during long relocation chains.
func (t *Table) InsertPathwise(key, value uint64) InsertResult {
	return fromOutcome(t.inner.InsertPathwise(key, value))
}

// WriteTo serializes the table as a versioned binary snapshot (implements
// io.WriterTo). Load restores it. The snapshot captures the complete
// logical state including the stash and the traffic meter; only the
// random-walk RNG is reseeded deterministically on load.
func (t *Table) WriteTo(w io.Writer) (int64, error) { return t.inner.WriteTo(w) }

// Load restores a single-slot table from a snapshot written by
// Table.WriteTo. The snapshot's configuration (hash functions, seed, stash,
// deletion mode, ...) travels with it, so structural options are ignored
// here; WithTelemetry attaches a collector to the restored table and counts
// a rejected (corrupt) snapshot in its corrupt-load counter.
func Load(r io.Reader, opts ...Option) (*Table, error) {
	tel, err := loadOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.Load(r)
	if err != nil {
		return nil, recordCorrupt(tel, err)
	}
	t := &Table{inner: inner}
	t.attachTelemetry(tel)
	return t, nil
}

// Grow rebuilds the blocked table, exactly as Table.Grow.
func (t *Blocked) Grow(growFactor float64) error { return t.inner.Grow(growFactor) }

// WriteTo serializes the blocked table (implements io.WriterTo); LoadBlocked
// restores it.
func (t *Blocked) WriteTo(w io.Writer) (int64, error) { return t.inner.WriteTo(w) }

// LoadBlocked restores a blocked table from a snapshot written by
// Blocked.WriteTo. Options behave as in Load.
func LoadBlocked(r io.Reader, opts ...Option) (*Blocked, error) {
	tel, err := loadOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.LoadBlocked(r)
	if err != nil {
		return nil, recordCorrupt(tel, err)
	}
	t := &Blocked{inner: inner}
	t.attachTelemetry(tel)
	return t, nil
}

// Range calls fn for every distinct live item (stash included) until fn
// returns false. Items with multiple copies are reported once. Iteration
// order is unspecified.
func (t *Table) Range(fn func(key, value uint64) bool) { t.inner.Range(fn) }

// CopyHistogram returns how many items currently have 1, 2, ..., d copies
// (index 0 unused): the redundancy distribution that defers collisions.
func (t *Table) CopyHistogram() []int { return t.inner.CopyHistogram() }

// Range calls fn for every distinct live item of the blocked table.
func (t *Blocked) Range(fn func(key, value uint64) bool) { t.inner.Range(fn) }

// CopyHistogram returns the blocked table's redundancy distribution.
func (t *Blocked) CopyHistogram() []int { return t.inner.CopyHistogram() }

// StashFlagDensity returns the fraction of buckets whose stash flag is set —
// the false-positive pressure on the stash pre-screen (a set flag forces
// every negative lookup through that bucket to also probe the stash).
func (t *Table) StashFlagDensity() float64 { return t.inner.StashFlagDensity() }

// StashFlagDensity returns the fraction of the blocked table's buckets whose
// stash flag is set; see Table.StashFlagDensity.
func (t *Blocked) StashFlagDensity() float64 { return t.inner.StashFlagDensity() }
