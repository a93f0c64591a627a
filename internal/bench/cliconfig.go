package bench

import (
	"flag"
	"fmt"
	"strings"

	"mccuckoo"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

// CLIConfig is the flag→config plumbing shared by cmd/mcbench and
// cmd/mctrace: one set of flag names, one validation path, one scheme
// factory. Commands register the flag groups they need on their own
// FlagSet, Parse, then call Validate once.
type CLIConfig struct {
	// Capacity is the table capacity in slots (0 falls back to the
	// harness default in Options()).
	Capacity int
	// MaxLoop is the kick-chain bound (0 = harness default, 500).
	MaxLoop int
	// Seed derives per-run seeds and table hash seeds.
	Seed uint64
	// Runs is the independent runs averaged per point (experiments).
	Runs int
	// Queries is the lookups sampled per measurement point (experiments).
	Queries int
	// Shards is the shard count for the sharded scheme (replay).
	Shards int
	// StashMax caps the stash population; 0 is unbounded (replay).
	StashMax int
}

// RegisterCommon binds the flag trio every benchmark-style command takes:
// -capacity, -maxloop, -seed. defCapacity and capUsage let each command
// keep its own default and help text while the names stay aligned.
func (c *CLIConfig) RegisterCommon(fs *flag.FlagSet, defCapacity int, capUsage string) {
	fs.IntVar(&c.Capacity, "capacity", defCapacity, capUsage)
	fs.IntVar(&c.MaxLoop, "maxloop", 0, "kick chain bound (default 500)")
	fs.Uint64Var(&c.Seed, "seed", 1, "base random seed")
}

// RegisterExperiment adds the paper-experiment flags (-runs, -queries).
func (c *CLIConfig) RegisterExperiment(fs *flag.FlagSet) {
	fs.IntVar(&c.Runs, "runs", 0, "independent runs averaged per point (default 5)")
	fs.IntVar(&c.Queries, "queries", 0, "lookups sampled per measurement point (default 20000)")
}

// RegisterReplay adds the trace-replay flags (-shards, -stashmax).
func (c *CLIConfig) RegisterReplay(fs *flag.FlagSet) {
	fs.IntVar(&c.Shards, "shards", 8, "shard count for -scheme sharded")
	fs.IntVar(&c.StashMax, "stashmax", 0, "cap the stash population (0 = unbounded); inserts beyond the cap fail and make the run exit non-zero")
}

// Validate is the single validation path for every registered group.
func (c *CLIConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-capacity", c.Capacity},
		{"-maxloop", c.MaxLoop},
		{"-runs", c.Runs},
		{"-queries", c.Queries},
		{"-stashmax", c.StashMax},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must be non-negative (got %d)", f.name, f.v)
		}
	}
	if c.Shards < 0 || (c.Shards > 0 && c.Shards&(c.Shards-1) != 0) {
		return fmt.Errorf("-shards must be a positive power of two (got %d)", c.Shards)
	}
	return nil
}

// Options maps the config onto the experiment harness Options; zero fields
// keep the harness defaults.
func (c *CLIConfig) Options() Options {
	o := DefaultOptions()
	if c.Capacity != 0 {
		o.Capacity = c.Capacity
	}
	if c.MaxLoop != 0 {
		o.MaxLoop = c.MaxLoop
	}
	if c.Runs != 0 {
		o.Runs = c.Runs
	}
	if c.Queries != 0 {
		o.Queries = c.Queries
	}
	o.Seed = c.Seed
	return o
}

// BuildScheme constructs one of the evaluated tables by name. Upsert
// semantics are kept (traces may re-insert live keys). The sharded and
// concurrent schemes go through the public Store interface via storeTable;
// the rest are the experiment tables build constructs, with full
// memory-traffic accounting.
func (c *CLIConfig) BuildScheme(name string) (kv.Table, error) {
	capacity, maxLoop := c.Capacity, c.MaxLoop
	if capacity <= 0 {
		return nil, fmt.Errorf("scheme %q needs -capacity > 0", name)
	}
	if maxLoop <= 0 {
		maxLoop = DefaultOptions().MaxLoop
	}
	pubOpts := []mccuckoo.Option{mccuckoo.WithSeed(c.Seed), mccuckoo.WithMaxLoop(maxLoop)}
	if c.StashMax > 0 {
		pubOpts = append(pubOpts, mccuckoo.WithStashLimit(c.StashMax))
	}
	switch strings.ToLower(name) {
	case "sharded":
		shards := c.Shards
		if shards == 0 {
			shards = 8
		}
		s, err := mccuckoo.NewSharded(capacity, shards, pubOpts...)
		if err != nil {
			return nil, err
		}
		return &storeTable{Store: s}, nil
	case "concurrent":
		t, err := mccuckoo.New(capacity, pubOpts...)
		if err != nil {
			return nil, err
		}
		return &storeTable{Store: mccuckoo.NewConcurrent(t)}, nil
	}
	// The experiment schemes' names are their paper names without the
	// hyphen: cuckoo, mccuckoo, bcht, bmccuckoo.
	for _, s := range AllSchemes {
		if strings.EqualFold(name, strings.ReplaceAll(s.String(), "-", "")) {
			return build(s, Options{Capacity: capacity, MaxLoop: maxLoop}, c.Seed,
				tableConfig{stash: true, stashMax: c.StashMax, upsert: true})
		}
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

// storeTable adapts a public mccuckoo.Store to the kv.Table surface the
// replay loop drives. The public interface deliberately hides the
// memory-traffic meter, so Meter returns a meter that never moves and the
// replay's traffic lines read zero for these schemes; throughput, load,
// and operation statistics are fully reported.
type storeTable struct {
	mccuckoo.Store
	meter memmodel.Meter
}

func (t *storeTable) Meter() *memmodel.Meter { return &t.meter }
