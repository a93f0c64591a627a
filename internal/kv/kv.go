// Package kv defines the small vocabulary shared by every hash-table scheme
// in this repository: 64-bit key/value entries, insertion outcomes, and the
// Table interface the experiment harness drives. Keys model the paper's
// DocID‖WordID items; values are opaque 64-bit payloads (an address when the
// table is used as an index, per §III.H's multiset discussion).
package kv

import "mccuckoo/internal/memmodel"

// Entry is one key/value item stored in a table.
type Entry struct {
	Key   uint64
	Value uint64
}

// KickPolicy selects how a victim is chosen when a collision forces an
// eviction. Shared by the baselines and the McCuckoo tables (§III.D: "any
// collision resolution algorithm can be used").
type KickPolicy uint8

const (
	// RandomWalk picks a uniformly random candidate, avoiding the bucket
	// the current item was just evicted from. This is the resolver used
	// throughout the paper's evaluation.
	RandomWalk KickPolicy = iota
	// MinCounter keeps a 5-bit kick counter per bucket (on-chip) and
	// evicts from the candidate with the smallest count (MinCounter,
	// MSST'15).
	MinCounter
	// BFS searches the eviction graph breadth-first for the shortest
	// relocation path to a free slot, the original cuckoo strategy the
	// paper contrasts with random walks ("probe for one in BFS order",
	// §I). Only the single-copy baselines implement it.
	BFS
)

// String returns the policy name.
func (p KickPolicy) String() string {
	switch p {
	case RandomWalk:
		return "random-walk"
	case MinCounter:
		return "min-counter"
	case BFS:
		return "bfs"
	default:
		return "unknown"
	}
}

// Status classifies how an insertion ended.
type Status uint8

const (
	// Placed means the item now lives in the main table.
	Placed Status = iota
	// Updated means the key already existed and its value was replaced.
	Updated
	// Stashed means collision resolution failed and the item went to the
	// stash.
	Stashed
	// Failed means the insertion could not be completed at all (no stash,
	// or the stash is full).
	Failed
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Placed:
		return "placed"
	case Updated:
		return "updated"
	case Stashed:
		return "stashed"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// Outcome reports what an insertion did.
type Outcome struct {
	Status Status
	// Kicks is the number of item relocations (kick-outs) this insertion
	// performed. Fig. 9 averages this quantity.
	Kicks int
}

// Stats aggregates lifetime operation counts for a table. The snake_case
// JSON names are the stable wire contract of the telemetry JSON endpoints;
// the rarely-populated fields are omitempty so an idle table serializes
// compactly.
type Stats struct {
	Inserts    int64 `json:"inserts"`            // insertion attempts
	Updates    int64 `json:"updates,omitempty"`  // inserts that replaced an existing key
	Kicks      int64 `json:"kicks,omitempty"`    // total kick-outs across all inserts
	Stashed    int64 `json:"stashed,omitempty"`  // inserts that overflowed into the stash
	Failures   int64 `json:"failures,omitempty"` // inserts that failed outright
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`
	Deletes    int64 `json:"deletes"`
	StashProbe int64 `json:"stash_probes,omitempty"` // lookups/deletes that had to consult the stash

	// Auto-grow outcomes (core.AutoGrowPolicy): GrowAttempts counts
	// individual Grow calls made by the policy, Grows the triggers that
	// ended with the stash back under threshold, GrowFailures the Grow
	// calls that returned an error.
	GrowAttempts int64 `json:"grow_attempts,omitempty"`
	Grows        int64 `json:"grows,omitempty"`
	GrowFailures int64 `json:"grow_failures,omitempty"`
}

// Table is the interface every scheme implements: the two baselines
// (standard d-ary cuckoo, BCHT) and the two multi-copy schemes (McCuckoo,
// B-McCuckoo). All tables are single-writer; internal/shard is the lock
// layer that shares one between goroutines.
type Table interface {
	// Insert stores key/value, replacing the value if key is present.
	Insert(key, value uint64) Outcome
	// Lookup returns the value stored for key.
	Lookup(key uint64) (uint64, bool)
	// Delete removes key, reporting whether it was present.
	Delete(key uint64) bool
	// Len returns the number of distinct live items (main table + stash).
	Len() int
	// Capacity returns the total number of slots in the main table.
	Capacity() int
	// LoadRatio returns Len()/Capacity(), the paper's load metric
	// (distinct items against table size).
	LoadRatio() float64
	// Meter exposes the memory-traffic counters.
	Meter() *memmodel.Meter
	// Stats exposes lifetime operation counts.
	Stats() Stats
	// StashLen returns the number of items currently in the stash
	// (0 for schemes without one).
	StashLen() int
}
