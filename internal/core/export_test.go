package core

// Fault-injection port: raw accessors over the on-chip and off-chip state
// that deliberately bypass every invariant. They exist solely for the
// injector and the fault-matrix tests (faultinject_test.go, fault_test.go),
// which corrupt a table and then assert that Repair heals it (or that Load
// rejects it). Being test code, they are not in the build.
//
// Index spaces: cells are the flat key/value slot indexes
// ((table*n+bucket)*l+slot, so table*n+bucket on a single-slot Table);
// counters share the cell index space; flags are per *bucket*, so flag
// index = cell/l.

// FaultNumCounters returns the number of on-chip copy counters (one per
// cell).
func (s *tableState) FaultNumCounters() int { return s.counters.Len() }

// FaultCounter reads counter i raw.
func (s *tableState) FaultCounter(i int) uint64 { return s.counters.Get(i) }

// FaultSetCounter overwrites counter i, invariants be damned — this is
// the sanctioned corruption surface for the fault matrix.
//
//mcvet:setter counters
func (s *tableState) FaultSetCounter(i int, v uint64) { s.counters.Set(i, v) }

// FaultCounterMax returns the largest value a counter field can hold.
func (s *tableState) FaultCounterMax() uint64 { return s.counters.Max() }

// FaultNumFlags returns the number of stash pre-screen flags (one per
// bucket).
func (s *tableState) FaultNumFlags() int { return s.flags.Len() }

// FaultFlag reads stash flag i.
func (s *tableState) FaultFlag(i int) bool { return s.flags.Get(i) }

// FaultSetFlag forces stash flag i (sanctioned corruption surface).
//
//mcvet:setter flags
func (s *tableState) FaultSetFlag(i int, set bool) {
	if set {
		s.flags.Set(i)
	} else {
		s.flags.Clear(i)
	}
}

// FaultNumCells returns the number of key/value cells.
func (s *tableState) FaultNumCells() int { return len(s.cells) }

// FaultCellKey reads the key stored in cell i.
func (s *tableState) FaultCellKey(i int) uint64 { return s.cells[i].Key }

// FaultSetCellKey overwrites the key stored in cell i (off-chip corruption).
func (s *tableState) FaultSetCellKey(i int, key uint64) { s.cells[i].Key = key }

// FaultCellValue reads the value stored in cell i.
func (s *tableState) FaultCellValue(i int) uint64 { return s.cells[i].Value }

// FaultSetCellValue overwrites the value stored in cell i.
func (s *tableState) FaultSetCellValue(i int, v uint64) { s.cells[i].Value = v }

// FaultCellIsCandidate reports whether cell lies in one of key's d candidate
// buckets (any slot of a candidate bucket qualifies).
func (s *tableState) FaultCellIsCandidate(key uint64, cell int) bool {
	n := s.cfg.BucketsPerTable
	bucket := cell / s.cfg.Slots
	return s.family.Index(bucket/n, key) == bucket%n
}

// FaultTombstoneValue returns the tombstone counter value, 0 when tombstones
// are disabled.
func (s *tableState) FaultTombstoneValue() uint64 { return s.tombstoneVal }

// FaultArity returns the hash-function count d.
func (s *tableState) FaultArity() int { return s.cfg.D }

// HugeAdvised returns the bytes handed to the kernel's huge-page advice so
// far.
func HugeAdvised() int64 { return hugeAdvised.Load() }

// HugePageSize is the size of the pages the advice asks for.
const HugePageSize = hugePageSize
