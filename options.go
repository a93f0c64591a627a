package mccuckoo

import (
	"fmt"

	"mccuckoo/internal/core"
	"mccuckoo/internal/kv"
)

// Status classifies how an insertion ended.
type Status = kv.Status

const (
	// Placed means the item now lives in the main table.
	Placed = kv.Placed
	// Updated means the key already existed and its value was replaced.
	Updated = kv.Updated
	// Stashed means collision resolution failed and the item went to the
	// stash (it remains fully findable).
	Stashed = kv.Stashed
	// Failed means the insertion could not be completed: the table is
	// effectively full and no stash (or a full one) was available.
	Failed = kv.Failed
)

// InsertResult reports what an insertion did: its Status and Kicks, the
// number of item relocations it performed.
type InsertResult = kv.Outcome

// Traffic is the memory-access footprint of a table: accesses to the
// off-chip main table (buckets, stash) and to the on-chip counter array.
type Traffic struct {
	OffChipReads  int64
	OffChipWrites int64
	OnChipReads   int64
	OnChipWrites  int64
}

// Stats aggregates lifetime operation counts, auto-grow activity included
// (see WithAutoGrow). It marshals to JSON with the snake_case names of the
// telemetry endpoint /debug/mccuckoo/stats.
type Stats = kv.Stats

// config is the option state: the core.Config a table is built from, plus
// the telemetry attachment, which wraps the table rather than configuring
// it.
type config struct {
	core.Config
	tel *Telemetry
}

// Option customizes a table.
type Option func(*config) error

// WithHashFunctions sets the number of hash functions d (2–4; default 3,
// which the paper shows is sufficient for loads well over 90%).
func WithHashFunctions(d int) Option {
	return func(c *config) error {
		if d < 2 || d > 4 {
			return fmt.Errorf("mccuckoo: d must be in [2,4], got %d", d)
		}
		c.D = d
		return nil
	}
}

// WithSlots sets the slots per bucket of a blocked table (2–4; default 3).
// New and NewSharded build single-slot tables and ignore it: their capacity
// does not depend on it.
func WithSlots(l int) Option {
	return func(c *config) error {
		if l < 2 || l > 4 {
			return fmt.Errorf("mccuckoo: slots must be in [2,4], got %d", l)
		}
		c.Slots = l
		return nil
	}
}

// WithMaxLoop bounds the kick-out chain length (default 500).
func WithMaxLoop(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("mccuckoo: maxloop must be positive, got %d", n)
		}
		c.MaxLoop = n
		return nil
	}
}

// WithSeed fixes the hash seeds and the random walk for reproducibility.
func WithSeed(seed uint64) Option {
	return func(c *config) error { c.Seed = seed; return nil }
}

// WithoutStash disables the overflow stash: insertions that cannot be placed
// return Failed instead of Stashed. The stash is on by default and unbounded
// (it lives in abundant off-chip memory, the paper's §III.E point).
func WithoutStash() Option {
	return func(c *config) error { c.StashEnabled = false; return nil }
}

// WithStashLimit caps the stash population; inserts beyond it Fail.
func WithStashLimit(max int) Option {
	return func(c *config) error {
		if max < 1 {
			return fmt.Errorf("mccuckoo: stash limit must be positive, got %d", max)
		}
		c.StashMax = max
		return nil
	}
}

// WithTombstoneDeletion marks deleted buckets instead of zeroing their
// counters, preserving the never-inserted shortcut for negative lookups at
// the cost of one extra counter bit (§III.B.3).
func WithTombstoneDeletion() Option {
	return func(c *config) error { c.Deletion = core.Tombstone; return nil }
}

// WithMinCounterResolver switches collision resolution from the paper's
// random walk to MinCounter-style victim selection.
func WithMinCounterResolver() Option {
	return func(c *config) error { c.Policy = kv.MinCounter; return nil }
}

// WithoutLookupPrescreen makes lookups read candidate buckets the
// traditional way, ignoring the counters (the paper's §IV.F fallback for
// platforms where counter checks are not cheap). Single-slot tables only:
// the blocked lookup always reads the counters, so NewBlocked rejects it.
func WithoutLookupPrescreen() Option {
	return func(c *config) error { c.DisablePrescreen = true; return nil }
}

// WithDoubleHashing derives all d bucket indexes from two hash computations
// (h1 + i·h2 mod n), the construction of the paper's reference [21]: cheaper
// hashing with provably unchanged cuckoo load thresholds.
func WithDoubleHashing() Option {
	return func(c *config) error { c.DoubleHashing = true; return nil }
}

// AutoGrowPolicy configures graceful degradation under stash pressure; see
// WithAutoGrow.
type AutoGrowPolicy struct {
	// StashThreshold is the stash population above which an insertion that
	// lands in the stash triggers a grow. 0 means grow on any stashed insert.
	StashThreshold int
	// Factor is the capacity multiplier of the first grow attempt
	// (default 2.0; must be > 1).
	Factor float64
	// MaxAttempts bounds the Grow calls of one auto-grow episode
	// (default 3).
	MaxAttempts int
	// Backoff multiplies Factor between attempts when a grow did not bring
	// the stash back under the threshold (default 1.5; must be >= 1).
	Backoff float64
}

// WithAutoGrow enables automatic capacity growth: when an insertion lands in
// the stash and the stash population exceeds policy.StashThreshold, the table
// grows by policy.Factor (retrying up to policy.MaxAttempts times with
// multiplicative policy.Backoff) until the stash drains back under the
// threshold. Zero-valued policy fields take the documented defaults.
// Requires the stash (incompatible with WithoutStash); attempts and outcomes
// are surfaced in Stats.
func WithAutoGrow(policy AutoGrowPolicy) Option {
	return func(c *config) error {
		c.AutoGrow = core.AutoGrowPolicy{
			Enabled:        true,
			StashThreshold: policy.StashThreshold,
			Factor:         policy.Factor,
			MaxAttempts:    policy.MaxAttempts,
			Backoff:        policy.Backoff,
		}
		return nil
	}
}

// WithUniqueKeys promises that every inserted key is new, skipping the
// duplicate-key scan on insert. Inserting an existing key with this option
// corrupts the table; use it only for bulk loads of deduplicated data.
func WithUniqueKeys() Option {
	return func(c *config) error { c.AssumeUniqueKeys = true; return nil }
}

// buildConfig applies opts to the defaults and returns the core.Config of a
// table whose main array should hold roughly `capacity` slots in total; a
// single-slot table (blocked false) has one slot per bucket whatever
// WithSlots says, and a blocked one refuses WithoutLookupPrescreen. The
// second result is the telemetry attachment requested via WithTelemetry
// (nil when absent).
func buildConfig(capacity int, blocked bool, opts []Option) (core.Config, *Telemetry, error) {
	if capacity < 8 {
		return core.Config{}, nil, fmt.Errorf("mccuckoo: capacity must be at least 8, got %d", capacity)
	}
	c := config{Config: core.Config{D: 3, Slots: 3, Seed: 1, StashEnabled: true}}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return core.Config{}, nil, err
		}
	}
	if !blocked {
		c.Slots = 1
	} else if c.DisablePrescreen {
		return core.Config{}, nil, fmt.Errorf("mccuckoo: WithoutLookupPrescreen applies to single-slot tables only; the blocked lookup always reads the counters")
	}
	c.BucketsPerTable = (capacity + c.D*c.Slots - 1) / (c.D * c.Slots)
	return c.Config, c.tel, nil
}

// loadOptions applies opts for a Load call. A snapshot carries its own
// structural configuration (hash functions, seed, stash, ...), so structural
// options are accepted but have no effect there; only attachment options —
// WithTelemetry — are meaningful, and the requested telemetry is returned.
func loadOptions(opts []Option) (*Telemetry, error) {
	var c config
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	return c.tel, nil
}
