package memmodel

import (
	"math"
	"testing"
)

func TestMeterAccumulation(t *testing.T) {
	var m Meter
	m.ReadOff(2)
	m.WriteOff(3)
	m.ReadOn(5)
	m.WriteOn(7)
	if m.OffChipReads != 2 || m.OffChipWrites != 3 || m.OnChipReads != 5 || m.OnChipWrites != 7 {
		t.Fatalf("unexpected counts: %+v", m)
	}
}

func TestMeterSnapshotSub(t *testing.T) {
	var m Meter
	m.ReadOff(10)
	snap := m.Snapshot()
	m.ReadOff(4)
	m.WriteOn(2)
	delta := m.Snapshot().Sub(snap)
	if delta.OffChipReads != 4 || delta.OnChipWrites != 2 || delta.OffChipWrites != 0 {
		t.Fatalf("delta = %+v", delta)
	}
}

func TestMeterAddReset(t *testing.T) {
	a := Meter{OffChipReads: 1, OffChipWrites: 2, OnChipReads: 3, OnChipWrites: 4}
	b := Meter{OffChipReads: 10, OffChipWrites: 20, OnChipReads: 30, OnChipWrites: 40}
	sum := a.Add(b)
	if !sum.Same(Meter{OffChipReads: 11, OffChipWrites: 22, OnChipReads: 33, OnChipWrites: 44}) {
		t.Fatalf("Add = %+v", sum)
	}
	a.Reset()
	if !a.Same(Meter{}) {
		t.Fatalf("Reset left %+v", a)
	}
}

func TestDefaultPlatformValues(t *testing.T) {
	p := DefaultPlatform(8)
	if p.LogicMHz != 333 || p.MemMHz != 200 {
		t.Fatalf("unexpected clocks: %+v", p)
	}
	if p.RecordBytes != 8 {
		t.Fatalf("record bytes = %d", p.RecordBytes)
	}
	// Non-positive record size falls back to 8 bytes.
	if DefaultPlatform(0).RecordBytes != 8 {
		t.Error("zero record size not defaulted")
	}
}

func TestLatencySingleRead(t *testing.T) {
	p := DefaultPlatform(8)
	// One op, one off-chip read: 1 logic CLK (3.003 ns) + 18 mem CLK (90 ns).
	m := Meter{OffChipReads: 1}
	got := p.LatencyNS(m, 1)
	want := 1e3/333 + 18*1e3/200
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("LatencyNS = %g, want %g", got, want)
	}
}

func TestLatencyScalesWithOps(t *testing.T) {
	p := DefaultPlatform(8)
	m := Meter{OffChipReads: 10, OnChipReads: 30}
	per10 := p.LatencyNS(m, 10)
	per1 := p.LatencyNS(Meter{OffChipReads: 1, OnChipReads: 3}, 1)
	if math.Abs(per10-per1) > 1e-9 {
		t.Fatalf("per-op latency should match: %g vs %g", per10, per1)
	}
	if p.LatencyNS(m, 0) != 0 {
		t.Error("zero ops should give zero latency")
	}
}

func TestLatencyRecordSizeBursts(t *testing.T) {
	small := DefaultPlatform(8)
	big := DefaultPlatform(128)
	m := Meter{OffChipReads: 1}
	ls := small.LatencyNS(m, 1)
	lb := big.LatencyNS(m, 1)
	if lb <= ls {
		t.Fatalf("128-byte read (%g ns) not slower than 8-byte (%g ns)", lb, ls)
	}
	// Writes are posted, so record size should not change write latency.
	w := Meter{OffChipWrites: 1}
	if small.LatencyNS(w, 1) != big.LatencyNS(w, 1) {
		t.Error("write latency should be record-size independent")
	}
}

func TestThroughputReciprocal(t *testing.T) {
	p := DefaultPlatform(8)
	m := Meter{OffChipReads: 2, OnChipReads: 3}
	lat := p.LatencyNS(m, 1)
	tp := p.ThroughputMOPS(m, 1)
	if math.Abs(tp-1e3/lat) > 1e-9 {
		t.Fatalf("throughput %g, want %g", tp, 1e3/lat)
	}
	if p.ThroughputMOPS(Meter{}, 0) != 0 {
		t.Error("zero ops should give zero throughput")
	}
}

func TestOnChipCheaperThanOffChip(t *testing.T) {
	// The design premise: counter checks must be an order of magnitude
	// cheaper than bucket reads, otherwise skipping buckets buys nothing.
	p := DefaultPlatform(64)
	on := p.LatencyNS(Meter{OnChipReads: 1}, 1)
	off := p.LatencyNS(Meter{OffChipReads: 1}, 1)
	if on*5 > off {
		t.Fatalf("on-chip read %g ns vs off-chip %g ns: hierarchy too flat", on, off)
	}
}
