package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
)

// goldenTable is the surface the exact-behaviour script drives; both table
// kinds satisfy it.
type goldenTable interface {
	Insert(key, value uint64) kv.Outcome
	Lookup(key uint64) (uint64, bool)
	Delete(key uint64) bool
	InsertPathwise(key, value uint64) kv.Outcome
	RefreshStashFlags() int
	Grow(growFactor float64) error
	Repair() RepairReport
	FaultNumCounters() int
	FaultCounter(i int) uint64
	FaultSetCounter(i int, v uint64)
	Meter() *memmodel.Meter
	Stats() kv.Stats
	CopyHistogram() []int
	Len() int
	Copies() int
	StashLen() int
	WriteTo(w io.Writer) (int64, error)
	CheckInvariants() error
}

// goldenFingerprints pins one CRC32C per configuration over everything the
// script observes: every operation's result, the ordered stream of memory
// accesses, the final Meter, Stats, CopyHistogram, Len/Copies/StashLen and
// the WriteTo bytes. A refactor that keeps every fingerprint moved no
// access, no kick and no snapshot byte, so snapshots written before it
// still load.
var goldenFingerprints = map[string]uint32{
	"table/d=2/random-walk/reset-counters":   0x9d1daa76,
	"table/d=2/random-walk/tombstone":        0xd4a1cbb9,
	"table/d=2/min-counter/reset-counters":   0x91114062,
	"table/d=2/min-counter/tombstone":        0x41fab59a,
	"table/d=3/random-walk/reset-counters":   0x2dcec942,
	"table/d=3/random-walk/tombstone":        0x85bdc48e,
	"table/d=3/min-counter/reset-counters":   0x883badc3,
	"table/d=3/min-counter/tombstone":        0xa1354a74,
	"table/d=4/random-walk/reset-counters":   0x5103fdd7,
	"table/d=4/random-walk/tombstone":        0x44f945f4,
	"table/d=4/min-counter/reset-counters":   0xf7562ae5,
	"table/d=4/min-counter/tombstone":        0xb642d839,
	"table/autogrow":                         0x1b855f2c,
	"blocked/d=2/random-walk/reset-counters": 0xfceaf0a0,
	"blocked/d=2/random-walk/tombstone":      0x67a8f773,
	"blocked/d=2/min-counter/reset-counters": 0x42c0bd96,
	"blocked/d=2/min-counter/tombstone":      0x4532b0bd,
	"blocked/d=3/random-walk/reset-counters": 0x6d652b1b,
	"blocked/d=3/random-walk/tombstone":      0x3979be7d,
	"blocked/d=3/min-counter/reset-counters": 0xb60cefcb,
	"blocked/d=3/min-counter/tombstone":      0x6c2c2ec8,
	"blocked/d=4/random-walk/reset-counters": 0x5fef6ee8,
	"blocked/d=4/random-walk/tombstone":      0x1b8f2434,
	"blocked/d=4/min-counter/reset-counters": 0x188207d1,
	"blocked/d=4/min-counter/tombstone":      0xffe5bd4b,
	"blocked/autogrow":                       0x33e0fe4e,
}

// goldenRow is one configuration of the exact-behaviour test.
type goldenRow struct {
	name  string
	cfg   Config
	build func(Config) (goldenTable, error)
	load  func(io.Reader) (goldenTable, error)
}

func goldenRows() []goldenRow {
	single := func(cfg Config) (goldenTable, error) { return New(cfg) }
	blocked := func(cfg Config) (goldenTable, error) { return NewBlocked(cfg) }
	loadSingle := func(r io.Reader) (goldenTable, error) { return Load(r) }
	loadBlocked := func(r io.Reader) (goldenTable, error) { return LoadBlocked(r) }
	var rows []goldenRow
	for _, kind := range []string{"table", "blocked"} {
		build, load, n, l := single, loadSingle, 128, 1
		if kind == "blocked" {
			build, load, n, l = blocked, loadBlocked, 48, 3
		}
		for _, d := range []int{2, 3, 4} {
			for _, pol := range []kv.KickPolicy{kv.RandomWalk, kv.MinCounter} {
				for _, del := range []DeletionMode{ResetCounters, Tombstone} {
					rows = append(rows, goldenRow{
						name: fmt.Sprintf("%s/d=%d/%v/%v", kind, d, pol, del),
						cfg: Config{D: d, Slots: l, BucketsPerTable: n, MaxLoop: 200,
							Seed:   uint64(1000*l + 100*d + 10*int(pol) + int(del)),
							Policy: pol, Deletion: del, StashEnabled: true},
						build: build, load: load,
					})
				}
			}
		}
		rows = append(rows, goldenRow{
			name: kind + "/autogrow",
			cfg: Config{D: 3, Slots: l, BucketsPerTable: n, MaxLoop: 100, Seed: uint64(77 + l),
				StashEnabled: true, AutoGrow: AutoGrowPolicy{Enabled: true, StashThreshold: 2}},
			build: build, load: load,
		})
	}
	return rows
}

// goldenSum folds little-endian words into a CRC32C.
type goldenSum struct{ h hash.Hash32 }

func (g goldenSum) put(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		g.h.Write(buf[:])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestGoldenFingerprint runs one seeded script per configuration: fill past
// the first stash, update, hit and miss lookups, deletes, RefreshStashFlags,
// InsertPathwise back up to high load, Grow(1.5), and Repair after seeded
// counter corruption.
func TestGoldenFingerprint(t *testing.T) {
	rows := goldenRows()
	if len(rows) != len(goldenFingerprints) {
		t.Fatalf("%d rows but %d pinned fingerprints", len(rows), len(goldenFingerprints))
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want, ok := goldenFingerprints[row.name]
			if !ok {
				t.Fatalf("no pinned fingerprint for %s", row.name)
			}
			if got := goldenRun(t, row); got != want {
				t.Errorf("fingerprint %#08x, pinned %#08x", got, want)
			}
		})
	}
}

func goldenRun(t *testing.T, row goldenRow) uint32 {
	tab, err := row.build(row.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := goldenSum{crc32.New(crc32.MakeTable(crc32.Castagnoli))}
	tab.Meter().Hook = func(kind memmodel.AccessKind, n int64) { sum.put(uint64(kind), uint64(n)) }
	s := row.cfg.Seed ^ 0x9e3779b97f4a7c15
	next := func() uint64 { return hashutil.SplitMix64(&s) }
	outcome := func(o kv.Outcome) {
		if o.Status == kv.Failed {
			t.Fatalf("insert failed with the stash on")
		}
		sum.put(uint64(o.Status), uint64(o.Kicks))
	}

	// Fill past the first stash.
	var keys []uint64
	firstStash := -1
	for i := 0; firstStash < 0 || i < firstStash+32; i++ {
		if i > 4*tab.FaultNumCounters() {
			t.Fatal("fill never reached the stash")
		}
		k := next()
		o := tab.Insert(k, k^0x5a5a)
		outcome(o)
		keys = append(keys, k)
		if o.Status == kv.Stashed && firstStash < 0 {
			firstStash = i
		}
	}
	// Updates, then hit and miss lookups.
	for i := 0; i < len(keys); i += 5 {
		outcome(tab.Insert(keys[i], keys[i]+1))
	}
	lookups := func() {
		for _, k := range keys {
			v, ok := tab.Lookup(k)
			sum.put(v, b2u(ok))
		}
		for i := 0; i < len(keys)/2; i++ {
			v, ok := tab.Lookup(next())
			sum.put(v, b2u(ok))
		}
	}
	lookups()
	// Deletes: every third key plus some misses, then lookups again.
	live := keys[:0:0]
	deleted := 0
	for i, k := range keys {
		if i%3 == 0 {
			sum.put(b2u(tab.Delete(k)))
			deleted++
			continue
		}
		live = append(live, k)
	}
	for i := 0; i < 16; i++ {
		sum.put(b2u(tab.Delete(next())))
	}
	keys = live
	lookups()
	sum.put(uint64(tab.RefreshStashFlags()))
	// Pathwise inserts back past the load where the first stash happened.
	for i := 0; i < deleted+16; i++ {
		k := next()
		outcome(tab.InsertPathwise(k, k^0xa5a5))
		keys = append(keys, k)
	}
	lookups()
	if err := tab.Grow(1.5); err != nil {
		t.Fatal(err)
	}
	lookups()
	// Repair after seeded counter corruption.
	d := uint64(row.cfg.D)
	for i := 0; i < 3; i++ {
		idx := int(next() % uint64(tab.FaultNumCounters()))
		tab.FaultSetCounter(idx, (tab.FaultCounter(idx)+1)%(d+1))
	}
	rep := tab.Repair()
	sum.put(uint64(rep.CountersFixed), uint64(rep.FlagsFixed), uint64(rep.HintsFixed),
		uint64(rep.AliensCleared), uint64(rep.ValuesFixed), uint64(rep.StashDropped),
		uint64(rep.SizeBefore), uint64(rep.SizeAfter), uint64(rep.CopiesBefore), uint64(rep.CopiesAfter))
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("invariants after Repair: %v", err)
	}

	m := tab.Meter().Snapshot()
	sum.put(uint64(m.OffChipReads), uint64(m.OffChipWrites), uint64(m.OnChipReads), uint64(m.OnChipWrites))
	st := tab.Stats()
	sum.put(uint64(st.Inserts), uint64(st.Updates), uint64(st.Kicks), uint64(st.Stashed),
		uint64(st.Failures), uint64(st.Lookups), uint64(st.Hits), uint64(st.Deletes),
		uint64(st.StashProbes), uint64(st.GrowAttempts), uint64(st.Grows), uint64(st.GrowFailures))
	for _, c := range tab.CopyHistogram() {
		sum.put(uint64(c))
	}
	sum.put(uint64(tab.Len()), uint64(tab.Copies()), uint64(tab.StashLen()))
	var snap bytes.Buffer
	if _, err := tab.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	sum.h.Write(snap.Bytes())

	loaded, err := row.load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Len() != tab.Len() || loaded.Copies() != tab.Copies() {
		t.Fatalf("loaded Len/Copies %d/%d, want %d/%d", loaded.Len(), loaded.Copies(), tab.Len(), tab.Copies())
	}
	if row.cfg.AutoGrow.Enabled {
		if st.Grows == 0 {
			t.Fatalf("auto-grow row never grew: %+v", st)
		}
	} else if st.StashProbes == 0 {
		t.Fatalf("script never probed the stash: %+v", st)
	}
	if st.Stashed == 0 {
		t.Fatalf("script never stashed: %+v", st)
	}
	return sum.h.Sum32()
}
