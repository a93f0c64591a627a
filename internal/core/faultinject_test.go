// The fault injector deterministically corrupts McCuckoo tables and their
// snapshots for fault-tolerance testing. Every injector is seeded, so a
// failing test reproduces bit-for-bit from its seed.
//
// The injector models the two failure domains of the design's memory split:
//
//   - On-chip (SRAM) faults hit the derived state — copy counters and stash
//     pre-screen flags. These must be fully healable by Repair, which
//     rebuilds that state from the off-chip arrays.
//   - Off-chip and at-rest faults hit the authoritative state — bucket keys
//     in memory, snapshot bytes on disk. An alien key is survivable through
//     the redundant copies; snapshot corruption must be *detected* at load
//     (the checksums' job), never silently absorbed.
//
// The fault-matrix tests (fault_test.go) assert exactly that contract:
// every injected fault is either detected at Load or healed by Repair.
package core_test

// Port is the raw-mutation surface a corruptible table exposes; both
// core.Table and core.BlockedTable implement it (see export_test.go for
// the index spaces).
type Port interface {
	FaultNumCounters() int
	FaultCounter(i int) uint64
	FaultSetCounter(i int, v uint64)
	FaultCounterMax() uint64
	FaultNumFlags() int
	FaultFlag(i int) bool
	FaultSetFlag(i int, set bool)
	FaultNumCells() int
	FaultCellKey(i int) uint64
	FaultSetCellKey(i int, key uint64)
	FaultCellValue(i int) uint64
	FaultSetCellValue(i int, v uint64)
	FaultCellIsCandidate(key uint64, cell int) bool
	FaultTombstoneValue() uint64
	FaultArity() int
}

// Fault records one injected fault, for test failure messages.
type Fault struct {
	Kind          string // which primitive fired
	Index         int    // counter/flag/cell index, or byte offset
	Before, After uint64 // value before and after (flags: 0/1)
	OK            bool   // false when no eligible target existed
}

// Injector is a deterministic fault source. Not safe for concurrent use.
type Injector struct {
	state uint64
}

// NewInjector returns an injector whose whole fault sequence is a pure
// function of seed.
func NewInjector(seed uint64) *Injector {
	return &Injector{state: seed ^ 0x9e3779b97f4a7c15}
}

// next advances the splitmix64 stream.
func (in *Injector) next() uint64 {
	in.state += 0x9e3779b97f4a7c15
	z := in.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (in *Injector) intn(n int) int {
	return int(in.next() % uint64(n))
}

// FlipCounterBit flips one random bit inside one random counter field,
// modelling a single-event upset in the SRAM counter array.
func (in *Injector) FlipCounterBit(p Port) Fault {
	i := in.intn(p.FaultNumCounters())
	width := 0
	for m := p.FaultCounterMax(); m != 0; m >>= 1 {
		width++
	}
	before := p.FaultCounter(i)
	after := before ^ (1 << uint(in.intn(width)))
	p.FaultSetCounter(i, after)
	return Fault{Kind: "counter-bit-flip", Index: i, Before: before, After: after, OK: true}
}

// ZeroCounter clears a random non-free counter (a lost on-chip record).
// Returns OK=false when every counter is already free.
func (in *Injector) ZeroCounter(p Port) Fault {
	i, ok := in.pickCounter(p, func(v uint64) bool { return !in.isFree(p, v) })
	if !ok {
		return Fault{Kind: "counter-zero"}
	}
	before := p.FaultCounter(i)
	p.FaultSetCounter(i, 0)
	return Fault{Kind: "counter-zero", Index: i, Before: before, OK: true}
}

// CorruptCounter overwrites a random counter with a random value (possibly
// above d — an impossible state Repair must clear).
func (in *Injector) CorruptCounter(p Port) Fault {
	i := in.intn(p.FaultNumCounters())
	before := p.FaultCounter(i)
	after := in.next() & p.FaultCounterMax()
	p.FaultSetCounter(i, after)
	return Fault{Kind: "counter-corrupt", Index: i, Before: before, After: after, OK: true}
}

// TombstoneCounter stamps a random counter with the tombstone value,
// modelling a spurious deletion mark. OK=false when the table has no
// tombstone mode.
func (in *Injector) TombstoneCounter(p Port) Fault {
	tomb := p.FaultTombstoneValue()
	if tomb == 0 {
		return Fault{Kind: "counter-tombstone"}
	}
	i := in.intn(p.FaultNumCounters())
	before := p.FaultCounter(i)
	p.FaultSetCounter(i, tomb)
	return Fault{Kind: "counter-tombstone", Index: i, Before: before, After: tomb, OK: true}
}

// ClearStashFlag clears a random set pre-screen flag (lookups would miss the
// stash). OK=false when no flag is set.
func (in *Injector) ClearStashFlag(p Port) Fault {
	i, ok := in.pickFlag(p, true)
	if !ok {
		return Fault{Kind: "flag-clear"}
	}
	p.FaultSetFlag(i, false)
	return Fault{Kind: "flag-clear", Index: i, Before: 1, After: 0, OK: true}
}

// SetStashFlag sets a random clear pre-screen flag (lookups would probe the
// stash for nothing). OK=false when every flag is already set.
func (in *Injector) SetStashFlag(p Port) Fault {
	i, ok := in.pickFlag(p, false)
	if !ok {
		return Fault{Kind: "flag-set"}
	}
	p.FaultSetFlag(i, true)
	return Fault{Kind: "flag-set", Index: i, Before: 0, After: 1, OK: true}
}

// AlienKey overwrites the stored key of one redundant copy with a key that
// does not hash to that cell — off-chip corruption that Repair must detect
// as an alien and survive through the sibling copies. Only cells whose key
// has at least two live stored copies are eligible, so no data is truly
// lost. OK=false when no key has redundant copies.
func (in *Injector) AlienKey(p Port) Fault {
	eligible := in.multiCopyCells(p, 2)
	if len(eligible) == 0 {
		return Fault{Kind: "alien-key"}
	}
	i := eligible[in.intn(len(eligible))]
	before := p.FaultCellKey(i)
	var alien uint64
	for {
		alien = in.next() | 1
		if !p.FaultCellIsCandidate(alien, i) {
			break
		}
	}
	p.FaultSetCellKey(i, alien)
	return Fault{Kind: "alien-key", Index: i, Before: before, After: alien, OK: true}
}

// DivergeValue corrupts the stored value of one redundant copy, leaving the
// key intact — the copies of that key now disagree, and Repair's majority
// vote must restore the original value. Only keys with at least three live
// copies are eligible, so the corrupted copy is always outvoted. OK=false
// when no key has that much redundancy.
func (in *Injector) DivergeValue(p Port) Fault {
	eligible := in.multiCopyCells(p, 3)
	if len(eligible) == 0 {
		return Fault{Kind: "value-diverge"}
	}
	i := eligible[in.intn(len(eligible))]
	before := p.FaultCellValue(i)
	after := before ^ (in.next() | 1)
	p.FaultSetCellValue(i, after)
	return Fault{Kind: "value-diverge", Index: i, Before: before, After: after, OK: true}
}

// multiCopyCells lists every cell holding a live copy of a key that has at
// least min live stored copies — the cells whose corruption the redundancy
// can absorb.
func (in *Injector) multiCopyCells(p Port, min int) []int {
	cells := p.FaultNumCells()
	copies := make(map[uint64]int, cells)
	for i := 0; i < cells; i++ {
		if k := p.FaultCellKey(i); k != 0 && in.isLive(p, i) && p.FaultCellIsCandidate(k, i) {
			copies[k]++
		}
	}
	var eligible []int
	for i := 0; i < cells; i++ {
		k := p.FaultCellKey(i)
		if k != 0 && in.isLive(p, i) && p.FaultCellIsCandidate(k, i) && copies[k] >= min {
			eligible = append(eligible, i)
		}
	}
	return eligible
}

// FlipSnapshotBit flips one random bit of a serialized snapshot and returns
// the fault (Index is the byte offset). The checksums must catch it at Load.
func (in *Injector) FlipSnapshotBit(buf []byte) Fault {
	off := in.intn(len(buf))
	bit := uint(in.intn(8))
	before := uint64(buf[off])
	buf[off] ^= 1 << bit
	return Fault{Kind: "snapshot-bit-flip", Index: off, Before: before, After: uint64(buf[off]), OK: true}
}

// Truncate returns a random proper prefix of a serialized snapshot. Load
// must reject it as truncated.
func (in *Injector) Truncate(buf []byte) []byte {
	return buf[:in.intn(len(buf))]
}

// isFree mirrors the table's free-counter rule (0, or the tombstone value).
func (in *Injector) isFree(p Port, v uint64) bool {
	return v == 0 || (p.FaultTombstoneValue() != 0 && v == p.FaultTombstoneValue())
}

// isLive reports whether cell i's counter marks a live copy (1..d).
func (in *Injector) isLive(p Port, i int) bool {
	v := p.FaultCounter(i)
	return !in.isFree(p, v) && v <= uint64(p.FaultArity())
}

// pickCounter returns a random counter index satisfying want, scanning from
// a random start so the choice is uniform-ish without collecting all
// matches.
func (in *Injector) pickCounter(p Port, want func(v uint64) bool) (int, bool) {
	n := p.FaultNumCounters()
	start := in.intn(n)
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if want(p.FaultCounter(i)) {
			return i, true
		}
	}
	return 0, false
}

// pickFlag returns a random flag index whose value equals want.
func (in *Injector) pickFlag(p Port, want bool) (int, bool) {
	n := p.FaultNumFlags()
	start := in.intn(n)
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if p.FaultFlag(i) == want {
			return i, true
		}
	}
	return 0, false
}
