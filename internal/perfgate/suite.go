package perfgate

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mccuckoo"
	"mccuckoo/internal/hashutil"
)

// SuiteOptions parameterizes one suite run. The zero value is invalid; use
// DefaultSuiteOptions, the one configuration baselines are recorded and
// checked at (tests run the suites smaller).
type SuiteOptions struct {
	// Scales are the resident key counts swept (default 10/100/1k/10k).
	Scales []int
	// Ops is the iteration count of one rep. Fixed — never time-targeted —
	// so every run does identical work and its counts repeat exactly.
	Ops int
	// Reps is how many reps each series runs; the counts cover all of
	// them, the printed ns/op is the fastest.
	Reps int
	// WireOps is the per-rep iteration count of the loopback round-trip
	// series, which cost microseconds per op rather than nanoseconds.
	WireOps int
}

// seed derives every key set and table seed.
const seed = 1

// DefaultSuiteOptions is the configuration `mcperf record` and `mcperf
// check` both run.
func DefaultSuiteOptions() SuiteOptions {
	return SuiteOptions{
		Scales:  []int{10, 100, 1000, 10000},
		Ops:     200_000,
		Reps:    10,
		WireOps: 2_000,
	}
}

func (o SuiteOptions) validate() error {
	if o.Ops <= 0 || o.Reps <= 0 || o.WireOps <= 0 {
		return fmt.Errorf("perfgate: Ops, Reps and WireOps must be positive")
	}
	for _, s := range o.Scales {
		if s < 1 {
			return fmt.Errorf("perfgate: scale %d out of range", s)
		}
	}
	return nil
}

// Suites maps suite names to runners; cmd/mcperf and the ci.sh gate select
// by name.
var Suites = map[string]func(SuiteOptions) (*Report, error){
	"core": CoreSuite,
	"wire": WireSuite,
}

// sink defeats dead-code elimination of measured loops.
var sink uint64

// keysFor derives the deterministic key set of one scale.
// Keys are nonzero and distinct; the high bit is kept clear so `k | 1<<63`
// is always an absent key for miss series.
func keysFor(scale int) []uint64 {
	keys := make([]uint64, scale)
	for i := range keys {
		k := hashutil.Mix64(seed + uint64(i)*0x9e3779b97f4a7c15)
		k &^= 1 << 63
		if k == 0 {
			k = 1
		}
		keys[i] = k
	}
	return keys
}

// capacityFor sizes a table so the resident set sits near 50% load — the
// regime the lookup principles are designed around.
func capacityFor(scale int) int {
	c := 2 * scale
	if c < 64 {
		c = 64
	}
	return c
}

// seedStore inserts every key (value = key) and fails loudly on a full
// table, which would invalidate the series.
func seedStore(st mccuckoo.Store, keys []uint64) error {
	for _, k := range keys {
		if r := st.Insert(k, k); r.Status == mccuckoo.Failed {
			return fmt.Errorf("perfgate: seeding insert failed at %d/%d keys", st.Len(), len(keys))
		}
	}
	return nil
}

// lookupHitLoop cycles lookups over the resident keys.
func lookupHitLoop(st mccuckoo.Store, keys []uint64) func(int) {
	j := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			v, _ := st.Lookup(keys[j])
			sink += v
			j++
			if j == len(keys) {
				j = 0
			}
		}
	}
}

// lookupMissLoop cycles lookups over keys guaranteed absent.
func lookupMissLoop(st mccuckoo.Store, keys []uint64) func(int) {
	j := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			v, _ := st.Lookup(keys[j] | 1<<63)
			sink += v
			j++
			if j == len(keys) {
				j = 0
			}
		}
	}
}

// mixLoop is the fixed op mix: per 8 ops, one delete, one (re)insert, five
// hit lookups, one miss lookup. The delete/insert pair rotates through the
// key set so the population stays near the seeded load while every op kind
// stays on the measured path. Deterministic: no RNG draws at run time.
func mixLoop(st mccuckoo.Store, keys []uint64) func(int) {
	j := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			k := keys[j]
			switch i & 7 {
			case 0:
				st.Delete(k)
			case 1:
				st.Insert(k, k)
			case 7:
				v, _ := st.Lookup(k | 1<<63)
				sink += v
			default:
				v, _ := st.Lookup(k)
				sink += v
			}
			j++
			if j == len(keys) {
				j = 0
			}
		}
	}
}

// CoreSuite measures the four public table kinds: single-thread lookup-hit,
// lookup-miss (Table only — the paper's headline metric), and the fixed op
// mix, at every scale, then a Table's fill to 85% and to 90% load. Table
// and Blocked series carry off-chip counts; Concurrent and Sharded, which
// expose no meter, carry allocations only.
func CoreSuite(o SuiteOptions) (*Report, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	r := NewReport("core", "go run ./cmd/mcperf record -suite core")
	kinds := []struct {
		name  string
		build func(capacity int) (mccuckoo.Store, error)
	}{
		{"table", func(c int) (mccuckoo.Store, error) {
			return mccuckoo.New(c, mccuckoo.WithSeed(seed))
		}},
		{"blocked", func(c int) (mccuckoo.Store, error) {
			return mccuckoo.NewBlocked(c, mccuckoo.WithSeed(seed))
		}},
		{"concurrent", func(c int) (mccuckoo.Store, error) {
			t, err := mccuckoo.New(c, mccuckoo.WithSeed(seed))
			if err != nil {
				return nil, err
			}
			return mccuckoo.NewConcurrent(t), nil
		}},
		{"sharded", func(c int) (mccuckoo.Store, error) {
			return mccuckoo.NewSharded(c, 4, mccuckoo.WithSeed(seed))
		}},
	}
	for _, kind := range kinds {
		for _, scale := range o.Scales {
			keys := keysFor(scale)
			st, err := kind.build(capacityFor(scale))
			if err != nil {
				return nil, fmt.Errorf("perfgate: build %s at scale %d: %w", kind.name, scale, err)
			}
			if err := seedStore(st, keys); err != nil {
				return nil, err
			}
			m, _ := st.(metered)
			r.addSeries(fmt.Sprintf("%s/lookup_hit/n=%d", kind.name, scale), o, m, lookupHitLoop(st, keys))
			if kind.name == "table" {
				r.addSeries(fmt.Sprintf("%s/lookup_miss/n=%d", kind.name, scale), o, m, lookupMissLoop(st, keys))
			}
			r.addSeries(fmt.Sprintf("%s/mix/n=%d", kind.name, scale), o, m, mixLoop(st, keys))
		}
	}
	keys := keysFor(o.Ops)
	for _, load := range []int{85, 90} {
		f := &fillLoop{capacity: (o.Ops*100 + load - 1) / load, keys: keys}
		r.addSeries(fmt.Sprintf("table/fill/load=%d", load), o, f, f.fill)
		if f.err != nil {
			return nil, fmt.Errorf("perfgate: table/fill/load=%d: %w", load, f.err)
		}
	}
	return r, nil
}

// fillLoop is the fill series' loop: the paper's insertion cost (Fig. 9/10)
// and what a table workload's setup runs. Each call builds a fresh seeded
// Table, sized so that Ops inserts reach the series' load, and inserts its
// first n keys through Insert, the upsert path. Traffic sums the meters of
// every table it filled, so addSeries reads a fill's cost as one store's.
type fillLoop struct {
	capacity int
	keys     []uint64
	traffic  mccuckoo.Traffic
	err      error
}

func (f *fillLoop) fill(n int) {
	tab, err := mccuckoo.New(f.capacity, mccuckoo.WithSeed(seed))
	if err != nil {
		f.err = err
		return
	}
	for _, k := range f.keys[:min(n, len(f.keys))] {
		if tab.Insert(k, k).Status == mccuckoo.Failed {
			f.err = fmt.Errorf("insert failed at %d/%d keys", tab.Len(), n)
			return
		}
	}
	t := tab.Traffic()
	f.traffic.OffChipReads += t.OffChipReads
	f.traffic.OffChipWrites += t.OffChipWrites
	f.traffic.OnChipReads += t.OnChipReads
	f.traffic.OnChipWrites += t.OnChipWrites
}

func (f *fillLoop) Traffic() mccuckoo.Traffic { return f.traffic }

// metered is the kinds with a traffic meter (Table and Blocked).
type metered interface{ Traffic() mccuckoo.Traffic }

// addSeries measures one loop and appends the series. fn is called once
// with a small n first to warm caches and grow scratch, so first-use
// allocations and misses are not counted; then Reps reps of Ops each run,
// and the counts are the deltas over all of them: the runtime's Mallocs and,
// when m is non-nil, m's off-chip traffic.
func (r *Report) addSeries(name string, o SuiteOptions, m metered, fn func(n int)) {
	fn(max(o.Ops/10, 64))
	var t0 mccuckoo.Traffic
	if m != nil {
		t0 = m.Traffic()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	best := int64(math.MaxInt64)
	for rep := 0; rep < o.Reps; rep++ {
		start := time.Now()
		fn(o.Ops)
		best = min(best, time.Since(start).Nanoseconds())
	}
	runtime.ReadMemStats(&ms1)
	ops := int64(o.Ops) * int64(o.Reps)
	s := Series{
		Name:        name,
		Ops:         ops,
		AllocsPerOp: math.Round(float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)),
		NsPerOp:     float64(best) / float64(o.Ops),
	}
	if m != nil {
		t1 := m.Traffic()
		s.OffChip = &OffChip{
			Reads:  float64(t1.OffChipReads-t0.OffChipReads) / float64(ops),
			Writes: float64(t1.OffChipWrites-t0.OffChipWrites) / float64(ops),
		}
	}
	r.Series = append(r.Series, s)
}
