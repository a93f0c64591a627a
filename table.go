package mccuckoo

import (
	"io"

	"mccuckoo/internal/core"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/shard"
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
	singleStore
}

// New creates a single-slot table with roughly `capacity` buckets in total
// (rounded up to a multiple of the hash-function count).
func New(capacity int, opts ...Option) (*Table, error) {
	cfg, tel, err := buildConfig(capacity, false, opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Table{newSingle(inner, tel)}, nil
}

// Blocked is the multi-slot McCuckoo table (B-McCuckoo): l slots per bucket
// with one counter per slot and per-copy slot hints. It reaches load ratios
// close to 100% (Table III operates at 99–100%).
type Blocked struct {
	singleStore
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
	return &Blocked{newSingle(inner, tel)}, nil
}

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
	return &Table{newSingle(inner, tel)}, nil
}

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
	return &Blocked{newSingle(inner, tel)}, nil
}

// coreTable is the core table a singleStore forwards to: core.Table or
// core.BlockedTable.
type coreTable interface {
	shard.Inner
	Copies() int
	OnChipBytes() int
	RefreshStashFlags() int
	StashFlagDensity() float64
	SaveFile(path string) error
}

// singleStore is the one implementation behind both single-writer kinds:
// Table and Blocked embed it, as Concurrent and Sharded embed shardedStore.
// It forwards every method to the core table and, with telemetry attached,
// records each point operation.
type singleStore struct {
	inner coreTable
	// meter is inner's meter, cached so that recording an operation reads
	// it without a call through inner. Grow and Repair rebuild the core
	// table in place, so the pointer stays valid for the table's life.
	meter *memmodel.Meter
	// sink is the attached telemetry collector; nil means telemetry is off,
	// and every recording call is one inlined nil check (no clock read, no
	// allocation).
	sink *telemetry.Sink
}

// newSingle wraps inner and attaches tel (nil for none). The gauges of a
// single-writer table are pushed, not pulled — see SampleTelemetry.
func newSingle(inner coreTable, tel *Telemetry) singleStore {
	s := singleStore{inner: inner, meter: inner.Meter()}
	if tel != nil {
		s.sink = tel.sink
		s.SampleTelemetry()
	}
	return s
}

// single returns the shared implementation; NewConcurrent unwraps through
// it.
func (s *singleStore) single() *singleStore { return s }

// Insert stores key/value, replacing the value if key is already present
// (unless WithUniqueKeys was set).
func (s *singleStore) Insert(key, value uint64) InsertResult {
	sink := s.sink
	before, start := sink.OffChip(s.meter), sink.Start()
	o := s.inner.Insert(key, value)
	sink.RecordInsert(-1, key, o, sink.OffChip(s.meter)-before, start)
	return o
}

// Lookup returns the value stored for key.
func (s *singleStore) Lookup(key uint64) (uint64, bool) {
	sink := s.sink
	before, start := sink.OffChip(s.meter), sink.Start()
	v, ok := s.inner.Lookup(key)
	sink.RecordLookup(-1, key, ok, sink.OffChip(s.meter)-before, start)
	return v, ok
}

// Delete removes key, reporting whether it was present. Deletion resets
// counters only — it performs zero off-chip writes.
func (s *singleStore) Delete(key uint64) bool {
	sink := s.sink
	before, start := sink.OffChip(s.meter), sink.Start()
	ok := s.inner.Delete(key)
	sink.RecordDelete(-1, key, ok, sink.OffChip(s.meter)-before, start)
	return ok
}

// Len returns the number of live items, stash included.
func (s *singleStore) Len() int { return s.inner.Len() }

// Capacity returns the total slot count (one slot per bucket on a Table).
func (s *singleStore) Capacity() int { return s.inner.Capacity() }

// LoadRatio returns Len()/Capacity().
func (s *singleStore) LoadRatio() float64 { return s.inner.LoadRatio() }

// StashLen returns the current stash population.
func (s *singleStore) StashLen() int { return s.inner.StashLen() }

// Copies returns the number of live physical copies in the main table; the
// surplus over Len()-StashLen() is the redundancy maintained for placement
// flexibility.
func (s *singleStore) Copies() int { return s.inner.Copies() }

// OnChipBytes returns the size of the counter array — the fast-memory
// footprint the scheme requires (2 bits per counter for d = 3).
func (s *singleStore) OnChipBytes() int { return s.inner.OnChipBytes() }

// RefreshStashFlags resynchronizes the stash flags after deletions by
// clearing them and reinserting every stashed item; it returns how many
// items moved back into the main table.
func (s *singleStore) RefreshStashFlags() int { return s.inner.RefreshStashFlags() }

// Traffic returns the accumulated memory-access counts.
func (s *singleStore) Traffic() Traffic {
	m := s.inner.Meter().Snapshot()
	return Traffic{m.OffChipReads, m.OffChipWrites, m.OnChipReads, m.OnChipWrites}
}

// Stats returns lifetime operation counts.
func (s *singleStore) Stats() Stats { return s.inner.Stats() }

// Grow rebuilds the table with a fresh hash family and growFactor times the
// capacity (>= 1; Grow(1) rehashes in place and re-absorbs the stash). This
// is the expensive operation the stash exists to avoid; use it when the
// table must actually get bigger.
func (s *singleStore) Grow(growFactor float64) error { return s.inner.Grow(growFactor) }

// WriteTo serializes the table as a versioned binary snapshot (implements
// io.WriterTo); Load or LoadBlocked, matching the kind, restores it. The
// snapshot captures the complete logical state including the stash and the
// traffic meter; only the random-walk RNG is reseeded deterministically on
// load.
func (s *singleStore) WriteTo(w io.Writer) (int64, error) { return s.inner.WriteTo(w) }

// Range calls fn for every distinct live item (stash included) until fn
// returns false. Items with multiple copies are reported once. Iteration
// order is unspecified.
func (s *singleStore) Range(fn func(key, value uint64) bool) { s.inner.Range(fn) }

// CopyHistogram returns how many items currently have 1, 2, ..., d copies
// (index 0 unused): the redundancy distribution that defers collisions.
func (s *singleStore) CopyHistogram() []int { return s.inner.CopyHistogram() }

// StashFlagDensity returns the fraction of buckets whose stash flag is set —
// the false-positive pressure on the stash pre-screen (a set flag forces
// every negative lookup through that bucket to also probe the stash).
func (s *singleStore) StashFlagDensity() float64 { return s.inner.StashFlagDensity() }
