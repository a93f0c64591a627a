package mccuckoo

import (
	"errors"
	"io"

	"mccuckoo/internal/core"
	"mccuckoo/internal/shard"
)

// This file is the public fault-tolerance surface: typed snapshot rejection,
// crash-safe file persistence, and online repair of the derived on-chip
// state. See DESIGN.md "Failure model & recovery" for the model behind it.

// CorruptError is the typed error every snapshot loader returns when the
// input is truncated, bit-flipped, internally inconsistent, or out of the
// format's bounds. Loaders never panic on garbage and never return a
// silently-wrong table. Detect it with errors.As.
type CorruptError = core.CorruptError

// RepairReport summarizes what a Repair pass rebuilt; see the field docs on
// the underlying type.
type RepairReport = core.RepairReport

// recordCorrupt counts a snapshot rejection in tel's corrupt-load counter
// when the rejection is a *CorruptError (I/O errors are not corruption), and
// passes err through either way.
func recordCorrupt(tel *Telemetry, err error) error {
	if tel != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			tel.sink.RecordCorruptLoad()
		}
	}
	return err
}

// Repair rebuilds the table's derived state — copy counters, stash flags,
// size/copies bookkeeping, and on a Blocked table the per-copy slot-hint
// vectors — purely from the authoritative off-chip buckets and stash. It is
// the recovery path for on-chip state loss (the counters are the only
// record a deletion leaves, so deletions whose counters are corrupted back
// to live may roll back; see DESIGN.md). The report says what changed; an
// all-zero report means the table was already consistent. With telemetry
// attached, the report is also recorded in the repair counters.
func (s *singleStore) Repair() RepairReport {
	rep := s.inner.Repair()
	s.sink.RecordRepair(rep)
	return rep
}

// SaveFile writes a crash-safe snapshot to path: the bytes go to a temp file
// in the same directory, are fsynced, and are atomically renamed over path.
// A crash mid-save leaves the previous file intact, never a torn snapshot.
func (s *singleStore) SaveFile(path string) error { return s.inner.SaveFile(path) }

// LoadFile restores a single-slot table from a SaveFile snapshot. On top of
// Load's checksum and bounds validation it rejects trailing bytes after the
// snapshot end. Any rejection is a *CorruptError. Options behave as in Load:
// structural options are ignored (the snapshot carries its configuration);
// WithTelemetry attaches a collector and counts corrupt rejections.
func LoadFile(path string, opts ...Option) (*Table, error) {
	tel, err := loadOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.LoadFile(path)
	if err != nil {
		return nil, recordCorrupt(tel, err)
	}
	return &Table{newSingle(inner, tel)}, nil
}

// LoadBlockedFile restores a blocked table from a SaveFile snapshot. Options
// behave as in Load.
func LoadBlockedFile(path string, opts ...Option) (*Blocked, error) {
	tel, err := loadOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.LoadBlockedFile(path)
	if err != nil {
		return nil, recordCorrupt(tel, err)
	}
	return &Blocked{newSingle(inner, tel)}, nil
}

// Grow grows every shard by growFactor, each under its own write lock.
// Shards grow independently; the table keeps serving on all other shards
// while one rebuilds.
func (s *Sharded) Grow(growFactor float64) error { return s.inner.Grow(growFactor) }

// Repair runs Repair on every shard under its write lock and returns the
// merged report.
func (s *Sharded) Repair() RepairReport { return s.inner.Repair() }

// WriteTo serializes all shards as one snapshot (implements io.WriterTo).
// Each shard is serialized under its read lock, so every shard's content is
// individually consistent; quiesce writers for a cross-shard-consistent
// snapshot.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) { return s.inner.WriteTo(w) }

// SaveFile writes a crash-safe snapshot of all shards to path, with the same
// temp-file + fsync + atomic-rename guarantee as Table.SaveFile.
func (s *Sharded) SaveFile(path string) error { return s.inner.SaveFile(path) }

// LoadSharded restores a sharded table from a snapshot written by
// Sharded.WriteTo. Shard count, routing seed, and every shard's full state
// travel with the snapshot. Options behave as in Load.
func LoadSharded(r io.Reader, opts ...Option) (*Sharded, error) {
	tel, err := loadOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := shard.Load(r)
	if err != nil {
		return nil, recordCorrupt(tel, err)
	}
	return newSharded(inner, tel), nil
}

// LoadShardedFile restores a sharded table from a SaveFile snapshot,
// rejecting trailing bytes after the snapshot end. Options behave as in
// Load.
func LoadShardedFile(path string, opts ...Option) (*Sharded, error) {
	tel, err := loadOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := shard.LoadFile(path)
	if err != nil {
		return nil, recordCorrupt(tel, err)
	}
	return newSharded(inner, tel), nil
}

// Ensure the io import stays honest about what this file exposes.
var _ io.WriterTo = (*Sharded)(nil)
