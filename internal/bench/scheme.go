// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (Fig. 9–16, Tables I–III) plus the ablations
// listed in DESIGN.md. Each runner builds the four schemes at matched
// capacity, drives the workloads, and renders the same rows/series the paper
// reports.
package bench

import (
	"fmt"

	"mccuckoo/internal/core"
	"mccuckoo/internal/cuckoo"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// Scheme identifies one of the four compared hash tables.
type Scheme int

const (
	// SchemeCuckoo is the standard ternary cuckoo baseline.
	SchemeCuckoo Scheme = iota
	// SchemeMcCuckoo is single-slot multi-copy cuckoo.
	SchemeMcCuckoo
	// SchemeBCHT is the 3-hash 3-slot blocked cuckoo baseline.
	SchemeBCHT
	// SchemeBMcCuckoo is the blocked multi-copy variant.
	SchemeBMcCuckoo
)

// AllSchemes lists the schemes in the paper's presentation order.
var AllSchemes = []Scheme{SchemeCuckoo, SchemeMcCuckoo, SchemeBCHT, SchemeBMcCuckoo}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeCuckoo:
		return "Cuckoo"
	case SchemeMcCuckoo:
		return "McCuckoo"
	case SchemeBCHT:
		return "BCHT"
	case SchemeBMcCuckoo:
		return "B-McCuckoo"
	default:
		return "unknown"
	}
}

// Blocked reports whether the scheme stores multiple slots per bucket.
func (s Scheme) Blocked() bool { return s == SchemeBCHT || s == SchemeBMcCuckoo }

// MaxLoad is the highest load ratio the sweeps push the scheme to: the
// single-slot schemes top out near the d=3 cuckoo threshold (~91.8%), the
// blocked ones close to full.
func (s Scheme) MaxLoad() float64 {
	if s.Blocked() {
		return 0.96
	}
	return 0.90
}

// Options parameterizes an experiment run.
type Options struct {
	// Capacity is the total slot count of every scheme (normalized up to
	// a multiple of 9 so blocked and single-slot tables match exactly).
	Capacity int
	// MaxLoop is the kick-chain bound (paper default 500).
	MaxLoop int
	// Runs is how many independent runs are averaged (the paper uses 10).
	Runs int
	// Seed derives all per-run seeds.
	Seed uint64
	// Queries is the number of lookups/deletes sampled per measurement
	// point.
	Queries int
}

// DefaultOptions returns laptop-scale defaults: ~147k slots, 5 runs.
func DefaultOptions() Options {
	return Options{
		Capacity: 9 * 16384,
		MaxLoop:  500,
		Runs:     5,
		Seed:     1,
		Queries:  20000,
	}
}

func (o *Options) normalize() error {
	if o.Capacity == 0 {
		o.Capacity = 9 * 16384
	}
	if o.MaxLoop == 0 {
		o.MaxLoop = 500
	}
	if o.Runs == 0 {
		o.Runs = 5
	}
	if o.Queries == 0 {
		o.Queries = 20000
	}
	if o.Capacity < 9*16 {
		return fmt.Errorf("bench: capacity %d too small", o.Capacity)
	}
	if o.Runs < 1 || o.MaxLoop < 1 || o.Queries < 1 {
		return fmt.Errorf("bench: Runs, MaxLoop and Queries must be positive")
	}
	o.Capacity = (o.Capacity + 8) / 9 * 9
	return nil
}

// runSeed derives the deterministic seed of one run.
func (o Options) runSeed(run int) uint64 {
	return hashutil.Mix64(o.Seed ^ uint64(run)*0x9e3779b97f4a7c15)
}

// tableConfig carries per-build tweaks on top of Options.
type tableConfig struct {
	stash            bool
	stashMax         int
	maxLoop          int
	policy           kv.KickPolicy
	deletion         core.DeletionMode
	disablePrescreen bool
	// upsert keeps duplicate-key handling on (for workloads that
	// re-insert live keys); the sweeps promise unique keys instead.
	upsert bool
}

// build constructs one scheme at the configured capacity. All schemes assume
// unique keys, matching the workloads and the paper's cost model.
func build(s Scheme, o Options, seed uint64, tc tableConfig) (kv.Table, error) {
	maxLoop := tc.maxLoop
	if maxLoop == 0 {
		maxLoop = o.MaxLoop
	}
	switch s {
	case SchemeCuckoo:
		return cuckoo.New(cuckoo.Config{
			D: 3, Slots: 1, BucketsPerTable: o.Capacity / 3,
			MaxLoop: maxLoop, Seed: seed, Policy: tc.policy,
			StashEnabled: tc.stash, StashMax: tc.stashMax,
			AssumeUniqueKeys: !tc.upsert,
		})
	case SchemeBCHT:
		return cuckoo.New(cuckoo.Config{
			D: 3, Slots: 3, BucketsPerTable: o.Capacity / 9,
			MaxLoop: maxLoop, Seed: seed, Policy: tc.policy,
			StashEnabled: tc.stash, StashMax: tc.stashMax,
			AssumeUniqueKeys: !tc.upsert,
		})
	case SchemeMcCuckoo:
		return core.New(core.Config{
			D: 3, BucketsPerTable: o.Capacity / 3,
			MaxLoop: maxLoop, Seed: seed, Policy: tc.policy,
			Deletion: tc.deletion, DisablePrescreen: tc.disablePrescreen,
			StashEnabled: tc.stash, StashMax: tc.stashMax,
			AssumeUniqueKeys: !tc.upsert,
		})
	case SchemeBMcCuckoo:
		return core.NewBlocked(core.Config{
			D: 3, Slots: 3, BucketsPerTable: o.Capacity / 9,
			MaxLoop: maxLoop, Seed: seed, Policy: tc.policy,
			Deletion:     tc.deletion,
			StashEnabled: tc.stash, StashMax: tc.stashMax,
			AssumeUniqueKeys: !tc.upsert,
		})
	default:
		return nil, fmt.Errorf("bench: unknown scheme %d", s)
	}
}
