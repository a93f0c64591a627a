// Package core implements McCuckoo, the multi-copy cuckoo hash table of the
// paper, in its single-slot (Table) and blocked multi-slot (BlockedTable)
// forms. The one-writer-many-readers mode lives in internal/shard.
//
// The defining idea: an inserted item occupies *all* of its free candidate
// buckets with redundant copies, and a compact on-chip counter per bucket
// records how many copies the occupying item has. Buckets with counter > 1
// can be overwritten without relocation, insertion failures go to an off-chip
// stash pre-screened by per-bucket flags, and lookups use the counters to
// skip buckets that provably cannot hold the queried item.
package core

import (
	"fmt"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// DeletionMode selects how deletions interact with the counters (§III.B.3).
type DeletionMode uint8

const (
	// ResetCounters zeroes the counters of the deleted item's buckets.
	// Cheap, but after the first deletion the "any zero counter means
	// never inserted" lookup shortcut must be disabled (the table does
	// this automatically).
	ResetCounters DeletionMode = iota
	// Tombstone marks the counters "deleted" instead: treated as empty
	// by insertion but non-zero by lookup, preserving the Bloom-filter
	// shortcut at the cost of one extra counter state (3 bits instead of
	// 2 for d = 3) and a filter that fades as deletions accumulate.
	Tombstone
)

// String returns the mode name.
func (m DeletionMode) String() string {
	switch m {
	case ResetCounters:
		return "reset-counters"
	case Tombstone:
		return "tombstone"
	default:
		return "unknown"
	}
}

// Config parameterizes a McCuckoo table.
type Config struct {
	// D is the number of hash functions / subtables (paper default: 3).
	D int
	// BucketsPerTable is the length of each subtable.
	BucketsPerTable int
	// Slots is the number of slots per bucket: NewBlocked takes 2–4
	// (default and paper: 3), New requires 1 (0 means the default).
	Slots int
	// MaxLoop bounds the kick-out chain length (paper default: 500).
	MaxLoop int
	// Seed makes hashing and the random walk reproducible.
	Seed uint64
	// Policy selects the collision resolver (§III.D: any resolver plugs
	// in; the paper's evaluation uses the random walk, MinCounter is the
	// ablation alternative).
	Policy kv.KickPolicy
	// Deletion selects the counter treatment on delete.
	Deletion DeletionMode
	// StashEnabled attaches the off-chip stash with flag pre-screening
	// (§III.E). StashMax caps its size; 0 means unbounded, which is the
	// paper's point — off-chip space is abundant.
	StashEnabled bool
	StashMax     int
	// DisablePrescreen makes lookups read candidate buckets the
	// traditional way, ignoring the counters (the §IV.F ablation: "just
	// skip checking the counters during the lookup"). Insertions still
	// use the counters.
	DisablePrescreen bool
	// DoubleHashing derives the d bucket indexes from only two hash
	// computations (h1 + i*h2), the paper's [21]: cheaper hashing with
	// provably unchanged load thresholds.
	DoubleHashing bool
	// AssumeUniqueKeys skips the duplicate-key scan on insert; the
	// experiment workloads guarantee uniqueness. Leave off for safe
	// upsert semantics.
	AssumeUniqueKeys bool
	// AutoGrow triggers automatic table growth under stash pressure:
	// graceful degradation instead of a filling stash when the load
	// climbs past what the configured geometry can absorb.
	AutoGrow AutoGrowPolicy
}

// AutoGrowPolicy configures automatic growth under stash pressure. When
// enabled, an insert that lands in the stash while the stash holds more than
// StashThreshold items triggers Grow(Factor); if the stash is still over the
// threshold afterwards the factor is multiplied by Backoff and growth retries,
// up to MaxAttempts attempts per trigger. Attempts and outcomes are surfaced
// in Stats (GrowAttempts, Grows, GrowFailures).
type AutoGrowPolicy struct {
	// Enabled turns the policy on.
	Enabled bool
	// StashThreshold is the stash population above which growth triggers.
	// 0 means grow on the first stashed item.
	StashThreshold int
	// Factor is the initial multiplier applied to BucketsPerTable
	// (default 2.0; must be > 1).
	Factor float64
	// MaxAttempts bounds growth retries per trigger (default 3).
	MaxAttempts int
	// Backoff multiplies the factor after an attempt that leaves the
	// stash over the threshold (default 1.5; must be >= 1).
	Backoff float64
}

func (c *Config) normalize(blocked bool) error {
	if c.D == 0 {
		c.D = 3
	}
	if c.Slots == 0 {
		c.Slots = 1
		if blocked {
			c.Slots = 3
		}
	}
	if c.MaxLoop == 0 {
		c.MaxLoop = 500
	}
	if c.D < 2 || c.D > 4 {
		return fmt.Errorf("core: D must be in [2,4], got %d", c.D)
	}
	if blocked {
		if c.Slots < 2 || c.Slots > 4 {
			return fmt.Errorf("core: blocked Slots must be in [2,4], got %d", c.Slots)
		}
	} else if c.Slots != 1 {
		return fmt.Errorf("core: single-slot table requires Slots == 1, got %d", c.Slots)
	}
	if c.BucketsPerTable <= 0 {
		return fmt.Errorf("core: BucketsPerTable must be positive, got %d", c.BucketsPerTable)
	}
	if c.MaxLoop < 1 {
		return fmt.Errorf("core: MaxLoop must be positive, got %d", c.MaxLoop)
	}
	if c.StashMax < 0 {
		return fmt.Errorf("core: StashMax must be non-negative, got %d", c.StashMax)
	}
	if c.AutoGrow.Enabled {
		if !c.StashEnabled {
			return fmt.Errorf("core: AutoGrow requires StashEnabled (growth triggers on stash pressure)")
		}
		if c.AutoGrow.Factor == 0 {
			c.AutoGrow.Factor = 2.0
		}
		if c.AutoGrow.MaxAttempts == 0 {
			c.AutoGrow.MaxAttempts = 3
		}
		if c.AutoGrow.Backoff == 0 {
			c.AutoGrow.Backoff = 1.5
		}
		if c.AutoGrow.Factor <= 1 {
			return fmt.Errorf("core: AutoGrow.Factor must be > 1, got %g", c.AutoGrow.Factor)
		}
		if c.AutoGrow.Backoff < 1 {
			return fmt.Errorf("core: AutoGrow.Backoff must be >= 1, got %g", c.AutoGrow.Backoff)
		}
		if c.AutoGrow.StashThreshold < 0 {
			return fmt.Errorf("core: AutoGrow.StashThreshold must be non-negative, got %d", c.AutoGrow.StashThreshold)
		}
		if c.AutoGrow.MaxAttempts < 1 {
			return fmt.Errorf("core: AutoGrow.MaxAttempts must be positive, got %d", c.AutoGrow.MaxAttempts)
		}
	}
	return nil
}

// newFamily builds the hash family the config asks for.
func newFamily(cfg Config) (*hashutil.Family, error) {
	if cfg.DoubleHashing {
		return hashutil.NewDoubleHashedFamily(cfg.D, cfg.BucketsPerTable, cfg.Seed)
	}
	return hashutil.NewFamily(cfg.D, cfg.BucketsPerTable, cfg.Seed)
}

// counterWidth returns the bit width of the on-chip counters: values 0..D
// plus, in Tombstone mode, one extra "deleted" state.
func (c *Config) counterWidth() uint {
	states := c.D + 1 // 0..D copies
	if c.Deletion == Tombstone {
		states++
	}
	width := uint(1)
	for 1<<width < states {
		width++
	}
	return width
}
