// Package memmodel models the two-level memory hierarchy the paper targets:
// a small fast on-chip memory (SRAM) holding the counter array, and a large
// slow off-chip memory (DRAM) holding the main table and the stash.
//
// Every hash-table implementation in this repository reports its memory
// traffic through a Meter. The experiment harness reads the Meter to produce
// the per-operation access counts of Fig. 10 and Fig. 12–14, and feeds the
// same counts into the Platform latency model to produce the latency and
// throughput numbers of Fig. 15–16.
package memmodel

// AccessKind labels one memory access for event-level tracing.
type AccessKind uint8

const (
	// OffRead is an off-chip bucket (or stash) read.
	OffRead AccessKind = iota
	// OffWrite is an off-chip bucket (or stash) write.
	OffWrite
	// OnRead is an on-chip counter read.
	OnRead
	// OnWrite is an on-chip counter write.
	OnWrite
)

// Meter accumulates memory accesses. The zero value is ready to use.
//
// "Off-chip" counts are accesses to main-table buckets and stash buckets;
// "on-chip" counts are accesses to the counter array (and, for baselines that
// have no counters, stay zero). Counts are plain int64s: tables are
// single-writer structures, so no atomics are needed, and the concurrent
// wrapper takes the writer lock around mutation.
//
// Hook, when non-nil, receives every access as it happens, in program order.
// The discrete-event pipeline simulator (internal/fpga) attaches here to
// replay real access streams through a timing model. The struct-copy
// helpers (Snapshot, Sub, Add) deliberately ignore Hook.
type Meter struct {
	OffChipReads  int64
	OffChipWrites int64
	OnChipReads   int64
	OnChipWrites  int64

	Hook func(kind AccessKind, n int64) `json:"-"`
}

// ReadOff records n off-chip bucket reads.
func (m *Meter) ReadOff(n int64) {
	m.OffChipReads += n
	if m.Hook != nil {
		m.Hook(OffRead, n)
	}
}

// WriteOff records n off-chip bucket writes.
func (m *Meter) WriteOff(n int64) {
	m.OffChipWrites += n
	if m.Hook != nil {
		m.Hook(OffWrite, n)
	}
}

// ReadOn records n on-chip counter reads.
func (m *Meter) ReadOn(n int64) {
	m.OnChipReads += n
	if m.Hook != nil {
		m.Hook(OnRead, n)
	}
}

// WriteOn records n on-chip counter writes.
func (m *Meter) WriteOn(n int64) {
	m.OnChipWrites += n
	if m.Hook != nil {
		m.Hook(OnWrite, n)
	}
}

// Snapshot returns the current counts by value (without the hook).
func (m *Meter) Snapshot() Meter {
	s := *m
	s.Hook = nil
	return s
}

// Sub returns the traffic accumulated since the earlier snapshot prev.
func (m Meter) Sub(prev Meter) Meter {
	return Meter{
		OffChipReads:  m.OffChipReads - prev.OffChipReads,
		OffChipWrites: m.OffChipWrites - prev.OffChipWrites,
		OnChipReads:   m.OnChipReads - prev.OnChipReads,
		OnChipWrites:  m.OnChipWrites - prev.OnChipWrites,
	}
}

// Add returns the element-wise sum of two Meters.
func (m Meter) Add(o Meter) Meter {
	return Meter{
		OffChipReads:  m.OffChipReads + o.OffChipReads,
		OffChipWrites: m.OffChipWrites + o.OffChipWrites,
		OnChipReads:   m.OnChipReads + o.OnChipReads,
		OnChipWrites:  m.OnChipWrites + o.OnChipWrites,
	}
}

// Reset zeroes all counts, keeping any attached Hook.
func (m *Meter) Reset() {
	hook := m.Hook
	*m = Meter{}
	m.Hook = hook
}

// Same reports whether two Meters hold identical counts (Meter itself is
// not comparable because of the Hook field).
func (m Meter) Same(o Meter) bool {
	return m.OffChipReads == o.OffChipReads && m.OffChipWrites == o.OffChipWrites &&
		m.OnChipReads == o.OnChipReads && m.OnChipWrites == o.OnChipWrites
}
