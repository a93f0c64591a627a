package core

import (
	"mccuckoo/internal/kv"
)

// Table is the single-slot McCuckoo hash table (d hash functions, one item
// per bucket, one 2-bit counter per bucket for d = 3). Its state is the
// shared tableState with l = 1, so a cell is a bucket; Table adds only the
// single-slot algorithms, whose victim handling finds a victim's surviving
// copies by counter disambiguation (DESIGN.md §6).
type Table struct {
	tableState
}

// New creates a single-slot McCuckoo table.
func New(cfg Config) (*Table, error) {
	t := &Table{}
	if err := t.setup(cfg, kindSingle, t); err != nil {
		return nil, err
	}
	return t, nil
}

// hintsRef reports that a single-slot table keeps no slot hints.
func (t *Table) hintsRef() *[][4]int8 { return nil }

// counterAt reads the on-chip counter of one candidate, charging the access.
//
//mcvet:hotpath
func (t *Table) counterAt(table, bucket int) uint64 {
	t.meter.ReadOn(1)
	return t.counters.Get(t.bucketIndex(table, bucket))
}

// setCounter writes an on-chip counter, charging the access. It is the
// sanctioned mutation path for the counter array; callers are responsible
// for the transition being one the paper allows.
//
//mcvet:hotpath
//mcvet:setter counters
func (t *Table) setCounter(table, bucket int, v uint64) {
	t.meter.WriteOn(1)
	t.counters.Set(t.bucketIndex(table, bucket), v)
}

// readBucket performs one off-chip bucket read, returning the stored key.
// The bucket's stash flag and value travel with the same access for free;
// callers that need them read t.flags / the cell directly without a further
// charge.
//
//mcvet:hotpath
func (t *Table) readBucket(table, bucket int) uint64 {
	t.meter.ReadOff(1)
	return t.cells[t.bucketIndex(table, bucket)].Key
}

// readEntry performs one off-chip bucket read, returning the full entry.
//
//mcvet:hotpath
func (t *Table) readEntry(table, bucket int) kv.Entry {
	t.meter.ReadOff(1)
	return t.cells[t.bucketIndex(table, bucket)]
}

// writeBucket performs one off-chip bucket write.
//
//mcvet:hotpath
func (t *Table) writeBucket(table, bucket int, e kv.Entry) {
	t.meter.WriteOff(1)
	t.cells[t.bucketIndex(table, bucket)] = e
}
