package mccuckoo

import (
	"fmt"

	"mccuckoo/internal/core"
	"mccuckoo/internal/kv"
)

// Status classifies how an insertion ended.
type Status uint8

const (
	// Placed means the item now lives in the main table.
	Placed Status = iota
	// Updated means the key already existed and its value was replaced.
	Updated
	// Stashed means collision resolution failed and the item went to the
	// stash (it remains fully findable).
	Stashed
	// Failed means the insertion could not be completed: the table is
	// effectively full and no stash (or a full one) was available.
	Failed
)

// String returns a human-readable status name.
func (s Status) String() string { return kv.Status(s).String() }

// InsertResult reports what an insertion did.
type InsertResult struct {
	Status Status
	// Kicks is the number of item relocations this insertion performed.
	Kicks int
}

func fromOutcome(o kv.Outcome) InsertResult {
	return InsertResult{Status: Status(o.Status), Kicks: o.Kicks}
}

// Traffic is the memory-access footprint of a table: accesses to the
// off-chip main table (buckets, stash) and to the on-chip counter array.
type Traffic struct {
	OffChipReads  int64
	OffChipWrites int64
	OnChipReads   int64
	OnChipWrites  int64
}

// Stats aggregates lifetime operation counts.
type Stats struct {
	Inserts     int64
	Updates     int64
	Kicks       int64
	Stashed     int64
	Failures    int64
	Lookups     int64
	Hits        int64
	Deletes     int64
	StashProbes int64

	// Auto-grow activity (see WithAutoGrow). GrowAttempts counts individual
	// Grow calls made by the policy, Grows counts auto-grow episodes that
	// brought the stash back under the threshold, GrowFailures counts Grow
	// calls that returned an error.
	GrowAttempts int64
	Grows        int64
	GrowFailures int64
}

func fromStats(s kv.Stats) Stats {
	return Stats{
		Inserts: s.Inserts, Updates: s.Updates, Kicks: s.Kicks,
		Stashed: s.Stashed, Failures: s.Failures, Lookups: s.Lookups,
		Hits: s.Hits, Deletes: s.Deletes, StashProbes: s.StashProbe,
		GrowAttempts: s.GrowAttempts, Grows: s.Grows, GrowFailures: s.GrowFailures,
	}
}

// config collects option state before it is translated to a core.Config.
type config struct {
	d          int
	slots      int
	maxLoop    int
	seed       uint64
	policy     kv.KickPolicy
	deletion   core.DeletionMode
	noStash    bool
	stashMax   int
	noPre      bool
	unique     bool
	doubleHash bool
	autoGrow   core.AutoGrowPolicy
	tel        *Telemetry
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
		c.d = d
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
		c.slots = l
		return nil
	}
}

// WithMaxLoop bounds the kick-out chain length (default 500).
func WithMaxLoop(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("mccuckoo: maxloop must be positive, got %d", n)
		}
		c.maxLoop = n
		return nil
	}
}

// WithSeed fixes the hash seeds and the random walk for reproducibility.
func WithSeed(seed uint64) Option {
	return func(c *config) error { c.seed = seed; return nil }
}

// WithoutStash disables the overflow stash: insertions that cannot be placed
// return Failed instead of Stashed. The stash is on by default and unbounded
// (it lives in abundant off-chip memory, the paper's §III.E point).
func WithoutStash() Option {
	return func(c *config) error { c.noStash = true; return nil }
}

// WithStashLimit caps the stash population; inserts beyond it Fail.
func WithStashLimit(max int) Option {
	return func(c *config) error {
		if max < 1 {
			return fmt.Errorf("mccuckoo: stash limit must be positive, got %d", max)
		}
		c.stashMax = max
		return nil
	}
}

// WithTombstoneDeletion marks deleted buckets instead of zeroing their
// counters, preserving the never-inserted shortcut for negative lookups at
// the cost of one extra counter bit (§III.B.3).
func WithTombstoneDeletion() Option {
	return func(c *config) error { c.deletion = core.Tombstone; return nil }
}

// WithMinCounterResolver switches collision resolution from the paper's
// random walk to MinCounter-style victim selection.
func WithMinCounterResolver() Option {
	return func(c *config) error { c.policy = kv.MinCounter; return nil }
}

// WithoutLookupPrescreen makes lookups read candidate buckets the
// traditional way, ignoring the counters (the paper's §IV.F fallback for
// platforms where counter checks are not cheap). Single-slot tables only:
// the blocked lookup always reads the counters, so NewBlocked rejects it.
func WithoutLookupPrescreen() Option {
	return func(c *config) error { c.noPre = true; return nil }
}

// WithDoubleHashing derives all d bucket indexes from two hash computations
// (h1 + i·h2 mod n), the construction of the paper's reference [21]: cheaper
// hashing with provably unchanged cuckoo load thresholds.
func WithDoubleHashing() Option {
	return func(c *config) error { c.doubleHash = true; return nil }
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
		c.autoGrow = core.AutoGrowPolicy{
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
	return func(c *config) error { c.unique = true; return nil }
}

// buildConfig translates options into a core.Config for a table whose main
// array should hold roughly `capacity` slots in total; a single-slot table
// (blocked false) has one slot per bucket whatever WithSlots says, and a
// blocked one refuses WithoutLookupPrescreen. The second result is
// the telemetry attachment requested via WithTelemetry (nil when absent),
// which lives outside core.Config because the collector wraps the table
// rather than configuring it.
func buildConfig(capacity int, blocked bool, opts []Option) (core.Config, *Telemetry, error) {
	if capacity < 8 {
		return core.Config{}, nil, fmt.Errorf("mccuckoo: capacity must be at least 8, got %d", capacity)
	}
	c := config{d: 3, slots: 3, seed: 1}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return core.Config{}, nil, err
		}
	}
	if !blocked {
		c.slots = 1
	} else if c.noPre {
		return core.Config{}, nil, fmt.Errorf("mccuckoo: WithoutLookupPrescreen applies to single-slot tables only; the blocked lookup always reads the counters")
	}
	perTable := (capacity + c.d*c.slots - 1) / (c.d * c.slots)
	return core.Config{
		D:                c.d,
		Slots:            c.slots,
		BucketsPerTable:  perTable,
		MaxLoop:          c.maxLoop,
		Seed:             c.seed,
		Policy:           c.policy,
		Deletion:         c.deletion,
		StashEnabled:     !c.noStash,
		StashMax:         c.stashMax,
		DisablePrescreen: c.noPre,
		AssumeUniqueKeys: c.unique,
		DoubleHashing:    c.doubleHash,
		AutoGrow:         c.autoGrow,
	}, c.tel, nil
}

// loadOptions applies opts for a Load call. A snapshot carries its own
// structural configuration (hash functions, seed, stash, ...), so structural
// options are accepted but have no effect there; only attachment options —
// WithTelemetry — are meaningful, and the requested telemetry is returned.
func loadOptions(opts []Option) (*Telemetry, error) {
	c := config{d: 3, slots: 1, seed: 1}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	return c.tel, nil
}
