package mccuckoo

import (
	"fmt"
	"strings"
	"testing"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/telemetry"
)

// eventLines renders a sink's flight recorder one event per line: every
// Event field, with the key hash resolved back to the key that produced it
// and latency reduced to timed (Nanos > 0) or untimed (Nanos == 0).
func eventLines(t *testing.T, tel *Telemetry, keys []uint64) []string {
	t.Helper()
	byHash := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		byHash[hashutil.Mix64(k)] = k
	}
	var lines []string
	for _, e := range tel.sink.Events() {
		k, ok := byHash[e.KeyHash]
		if !ok {
			t.Fatalf("event key hash %016x matches no key of the sequence", e.KeyHash)
		}
		if e.Nanos < 0 {
			t.Fatalf("event for key %d has negative Nanos %d", k, e.Nanos)
		}
		status := "-"
		if e.Op == telemetry.OpInsert {
			status = kv.Status(e.Status).String()
		} else if e.Status != 0 {
			t.Fatalf("%s event for key %d carries status %d", e.Op, k, e.Status)
		}
		lines = append(lines, fmt.Sprintf("%s key=%d status=%s hit=%t shard=%d kicks=%d offchip=%d timed=%t",
			e.Op, k, status, e.Hit, e.Shard, e.Kicks, e.OffChip, e.Nanos > 0))
	}
	return lines
}

// keyRange returns lo..hi inclusive.
func keyRange(lo, hi uint64) []uint64 {
	var ks []uint64
	for k := lo; k <= hi; k++ {
		ks = append(ks, k)
	}
	return ks
}

// TestRecordedEventsGolden pins what every recording caller records: one
// fixed operation sequence per table kind — point operations, pathwise
// inserts through Concurrent, and every batch operation with one key and
// with keys on several shards — and every field of every recorded event
// against a golden list. The tables are small enough that inserts kick and
// stash, so kick counts, statuses and off-chip costs all vary. Point
// operations are timed; keys inside a batch are not.
func TestRecordedEventsGolden(t *testing.T) {
	keys := keyRange(1, 110)
	check := func(t *testing.T, tel *Telemetry, want string) {
		t.Helper()
		got := eventLines(t, tel, keys)
		wantLines := strings.Split(strings.TrimSpace(want), "\n")
		for i := range wantLines {
			wantLines[i] = strings.TrimSpace(wantLines[i])
		}
		if strings.Join(got, "\n") == strings.Join(wantLines, "\n") {
			return
		}
		for i := 0; i < max(len(got), len(wantLines)); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("event %d:\n got  %s\n want %s", i, g, w)
			}
		}
		t.Fatalf("recorded events differ from the golden list; got:\n%s", strings.Join(got, "\n"))
	}

	t.Run("sharded", func(t *testing.T) {
		tel := NewTelemetry()
		s, err := NewSharded(48, 4, WithSeed(17), WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 20; k++ {
			s.Insert(k, k)
		}
		s.Insert(3, 30)
		s.Lookup(3)
		s.Lookup(101)
		s.Delete(2)
		s.Delete(102)
		s.InsertBatch([]uint64{21}, []uint64{21})
		s.InsertBatch(keyRange(22, 48), keyRange(22, 48))
		s.LookupBatch([]uint64{21})
		s.LookupBatch([]uint64{1, 2, 3, 22, 23, 47, 48, 103, 104})
		s.DeleteBatch([]uint64{22})
		s.DeleteBatch([]uint64{4, 5, 23, 24, 46, 105})
		check(t, tel, goldenSharded)
	})

	t.Run("concurrent", func(t *testing.T) {
		tel := NewTelemetry()
		tab, err := New(36, WithSeed(5), WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		c := NewConcurrent(tab)
		for k := uint64(1); k <= 38; k++ {
			c.InsertPathwise(k, k)
		}
		c.Insert(39, 39)
		c.Lookup(7)
		c.Lookup(106)
		c.Delete(8)
		c.InsertBatch([]uint64{40, 41}, []uint64{40, 41})
		c.LookupBatch([]uint64{9, 107})
		c.DeleteBatch([]uint64{10, 108})
		check(t, tel, goldenConcurrent)
	})

	t.Run("table", func(t *testing.T) {
		tel := NewTelemetry()
		tab, err := New(36, WithSeed(9), WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 40; k++ {
			tab.Insert(k, k)
		}
		tab.Insert(5, 50)
		tab.Lookup(5)
		tab.Lookup(109)
		tab.Delete(6)
		tab.Delete(110)
		check(t, tel, goldenTable)
	})

	t.Run("blocked", func(t *testing.T) {
		tel := NewTelemetry()
		b, err := NewBlocked(36, WithSeed(9), WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 40; k++ {
			b.Insert(k, k)
		}
		b.Lookup(5)
		b.Lookup(109)
		b.Delete(6)
		b.Delete(110)
		check(t, tel, goldenBlocked)
	})
}

const goldenSharded = `
insert key=1 status=placed hit=false shard=1 kicks=0 offchip=3 timed=true
insert key=2 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=3 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=4 status=placed hit=false shard=2 kicks=0 offchip=3 timed=true
insert key=5 status=placed hit=false shard=2 kicks=0 offchip=3 timed=true
insert key=6 status=placed hit=false shard=1 kicks=0 offchip=3 timed=true
insert key=7 status=placed hit=false shard=3 kicks=0 offchip=3 timed=true
insert key=8 status=placed hit=false shard=3 kicks=0 offchip=3 timed=true
insert key=9 status=placed hit=false shard=0 kicks=0 offchip=2 timed=true
insert key=10 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=11 status=placed hit=false shard=1 kicks=0 offchip=3 timed=true
insert key=12 status=placed hit=false shard=1 kicks=0 offchip=2 timed=true
insert key=13 status=placed hit=false shard=3 kicks=0 offchip=5 timed=true
insert key=14 status=placed hit=false shard=2 kicks=0 offchip=5 timed=true
insert key=15 status=placed hit=false shard=1 kicks=0 offchip=3 timed=true
insert key=16 status=placed hit=false shard=1 kicks=0 offchip=1 timed=true
insert key=17 status=placed hit=false shard=0 kicks=0 offchip=2 timed=true
insert key=18 status=placed hit=false shard=2 kicks=0 offchip=2 timed=true
insert key=19 status=placed hit=false shard=2 kicks=0 offchip=2 timed=true
insert key=20 status=placed hit=false shard=2 kicks=0 offchip=5 timed=true
insert key=3 status=updated hit=false shard=0 kicks=0 offchip=5 timed=true
lookup key=3 status=- hit=true shard=0 kicks=0 offchip=2 timed=true
lookup key=101 status=- hit=false shard=1 kicks=0 offchip=2 timed=true
delete key=2 status=- hit=true shard=0 kicks=0 offchip=2 timed=true
delete key=102 status=- hit=false shard=2 kicks=0 offchip=2 timed=true
insert key=21 status=placed hit=false shard=3 kicks=0 offchip=1 timed=false
insert key=26 status=placed hit=false shard=0 kicks=0 offchip=2 timed=false
insert key=27 status=placed hit=false shard=0 kicks=0 offchip=4 timed=false
insert key=32 status=placed hit=false shard=0 kicks=0 offchip=2 timed=false
insert key=39 status=placed hit=false shard=0 kicks=0 offchip=3 timed=false
insert key=41 status=placed hit=false shard=0 kicks=0 offchip=2 timed=false
insert key=47 status=placed hit=false shard=0 kicks=2 offchip=10 timed=false
insert key=23 status=placed hit=false shard=1 kicks=0 offchip=1 timed=false
insert key=25 status=placed hit=false shard=1 kicks=0 offchip=5 timed=false
insert key=28 status=placed hit=false shard=1 kicks=0 offchip=5 timed=false
insert key=29 status=placed hit=false shard=1 kicks=0 offchip=4 timed=false
insert key=31 status=placed hit=false shard=1 kicks=0 offchip=4 timed=false
insert key=33 status=placed hit=false shard=1 kicks=0 offchip=4 timed=false
insert key=42 status=stashed hit=false shard=1 kicks=500 offchip=1007 timed=false
insert key=45 status=stashed hit=false shard=1 kicks=500 offchip=1007 timed=false
insert key=30 status=placed hit=false shard=2 kicks=0 offchip=5 timed=false
insert key=36 status=placed hit=false shard=2 kicks=0 offchip=4 timed=false
insert key=37 status=placed hit=false shard=2 kicks=0 offchip=4 timed=false
insert key=40 status=placed hit=false shard=2 kicks=0 offchip=4 timed=false
insert key=22 status=placed hit=false shard=3 kicks=0 offchip=1 timed=false
insert key=24 status=placed hit=false shard=3 kicks=0 offchip=1 timed=false
insert key=34 status=placed hit=false shard=3 kicks=0 offchip=1 timed=false
insert key=35 status=placed hit=false shard=3 kicks=1 offchip=8 timed=false
insert key=38 status=placed hit=false shard=3 kicks=0 offchip=4 timed=false
insert key=43 status=placed hit=false shard=3 kicks=0 offchip=1 timed=false
insert key=44 status=placed hit=false shard=3 kicks=2 offchip=9 timed=false
insert key=46 status=stashed hit=false shard=3 kicks=500 offchip=1007 timed=false
insert key=48 status=placed hit=false shard=3 kicks=0 offchip=2 timed=false
lookup key=21 status=- hit=true shard=3 kicks=0 offchip=1 timed=false
lookup key=2 status=- hit=false shard=0 kicks=0 offchip=2 timed=false
lookup key=3 status=- hit=true shard=0 kicks=0 offchip=2 timed=false
lookup key=47 status=- hit=true shard=0 kicks=0 offchip=2 timed=false
lookup key=1 status=- hit=true shard=1 kicks=0 offchip=1 timed=false
lookup key=23 status=- hit=true shard=1 kicks=0 offchip=2 timed=false
lookup key=22 status=- hit=true shard=3 kicks=0 offchip=2 timed=false
lookup key=48 status=- hit=true shard=3 kicks=0 offchip=2 timed=false
lookup key=103 status=- hit=false shard=3 kicks=0 offchip=3 timed=false
lookup key=104 status=- hit=false shard=3 kicks=0 offchip=3 timed=false
delete key=22 status=- hit=true shard=3 kicks=0 offchip=2 timed=false
delete key=23 status=- hit=true shard=1 kicks=0 offchip=2 timed=false
delete key=4 status=- hit=true shard=2 kicks=0 offchip=3 timed=false
delete key=5 status=- hit=true shard=2 kicks=0 offchip=3 timed=false
delete key=24 status=- hit=true shard=3 kicks=0 offchip=3 timed=false
delete key=46 status=- hit=true shard=3 kicks=0 offchip=2 timed=false
delete key=105 status=- hit=false shard=3 kicks=0 offchip=3 timed=false
`

const goldenConcurrent = `
insert key=1 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=2 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=3 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=4 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=5 status=placed hit=false shard=0 kicks=0 offchip=2 timed=true
insert key=6 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=7 status=placed hit=false shard=0 kicks=0 offchip=2 timed=true
insert key=8 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=9 status=placed hit=false shard=0 kicks=0 offchip=2 timed=true
insert key=10 status=placed hit=false shard=0 kicks=0 offchip=3 timed=true
insert key=11 status=placed hit=false shard=0 kicks=0 offchip=2 timed=true
insert key=12 status=placed hit=false shard=0 kicks=0 offchip=2 timed=true
insert key=13 status=placed hit=false shard=0 kicks=0 offchip=1 timed=true
insert key=14 status=placed hit=false shard=0 kicks=0 offchip=5 timed=true
insert key=15 status=placed hit=false shard=0 kicks=0 offchip=4 timed=true
insert key=16 status=placed hit=false shard=0 kicks=0 offchip=1 timed=true
insert key=17 status=placed hit=false shard=0 kicks=0 offchip=1 timed=true
insert key=18 status=placed hit=false shard=0 kicks=0 offchip=2 timed=true
insert key=19 status=placed hit=false shard=0 kicks=0 offchip=1 timed=true
insert key=20 status=placed hit=false shard=0 kicks=0 offchip=5 timed=true
insert key=21 status=placed hit=false shard=0 kicks=0 offchip=5 timed=true
insert key=22 status=placed hit=false shard=0 kicks=0 offchip=5 timed=true
insert key=23 status=placed hit=false shard=0 kicks=0 offchip=5 timed=true
insert key=24 status=placed hit=false shard=0 kicks=0 offchip=1 timed=true
insert key=25 status=placed hit=false shard=0 kicks=0 offchip=5 timed=true
insert key=26 status=placed hit=false shard=0 kicks=0 offchip=4 timed=true
insert key=27 status=placed hit=false shard=0 kicks=0 offchip=5 timed=true
insert key=28 status=placed hit=false shard=0 kicks=0 offchip=1 timed=true
insert key=29 status=placed hit=false shard=0 kicks=0 offchip=4 timed=true
insert key=30 status=placed hit=false shard=0 kicks=1 offchip=9 timed=true
insert key=31 status=placed hit=false shard=0 kicks=0 offchip=5 timed=true
insert key=32 status=placed hit=false shard=0 kicks=0 offchip=4 timed=true
insert key=33 status=placed hit=false shard=0 kicks=0 offchip=4 timed=true
insert key=34 status=placed hit=false shard=0 kicks=9 offchip=40 timed=true
insert key=35 status=placed hit=false shard=0 kicks=0 offchip=4 timed=true
insert key=36 status=stashed hit=false shard=0 kicks=0 offchip=21 timed=true
insert key=37 status=stashed hit=false shard=0 kicks=0 offchip=22 timed=true
insert key=38 status=stashed hit=false shard=0 kicks=0 offchip=25 timed=true
insert key=39 status=stashed hit=false shard=0 kicks=500 offchip=1008 timed=true
lookup key=7 status=- hit=true shard=0 kicks=0 offchip=3 timed=true
lookup key=106 status=- hit=false shard=0 kicks=0 offchip=3 timed=true
delete key=8 status=- hit=true shard=0 kicks=0 offchip=2 timed=true
insert key=40 status=placed hit=false shard=0 kicks=3 offchip=11 timed=false
insert key=41 status=stashed hit=false shard=0 kicks=500 offchip=1008 timed=false
lookup key=9 status=- hit=true shard=0 kicks=0 offchip=2 timed=false
lookup key=107 status=- hit=false shard=0 kicks=0 offchip=3 timed=false
delete key=10 status=- hit=true shard=0 kicks=0 offchip=3 timed=false
delete key=108 status=- hit=false shard=0 kicks=0 offchip=3 timed=false
`

const goldenTable = `
insert key=1 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=2 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=3 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=4 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=5 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=6 status=placed hit=false shard=-1 kicks=0 offchip=2 timed=true
insert key=7 status=placed hit=false shard=-1 kicks=0 offchip=2 timed=true
insert key=8 status=placed hit=false shard=-1 kicks=0 offchip=2 timed=true
insert key=9 status=placed hit=false shard=-1 kicks=0 offchip=2 timed=true
insert key=10 status=placed hit=false shard=-1 kicks=0 offchip=2 timed=true
insert key=11 status=placed hit=false shard=-1 kicks=0 offchip=1 timed=true
insert key=12 status=placed hit=false shard=-1 kicks=0 offchip=1 timed=true
insert key=13 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=14 status=placed hit=false shard=-1 kicks=0 offchip=2 timed=true
insert key=15 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=16 status=placed hit=false shard=-1 kicks=0 offchip=1 timed=true
insert key=17 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=18 status=placed hit=false shard=-1 kicks=0 offchip=2 timed=true
insert key=19 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=20 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=21 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=22 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=23 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=24 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=25 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=26 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=27 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=28 status=placed hit=false shard=-1 kicks=0 offchip=1 timed=true
insert key=29 status=placed hit=false shard=-1 kicks=1 offchip=7 timed=true
insert key=30 status=placed hit=false shard=-1 kicks=0 offchip=1 timed=true
insert key=31 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=32 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=33 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=34 status=placed hit=false shard=-1 kicks=7 offchip=19 timed=true
insert key=35 status=stashed hit=false shard=-1 kicks=500 offchip=1007 timed=true
insert key=36 status=placed hit=false shard=-1 kicks=0 offchip=2 timed=true
insert key=37 status=stashed hit=false shard=-1 kicks=500 offchip=1007 timed=true
insert key=38 status=stashed hit=false shard=-1 kicks=500 offchip=1008 timed=true
insert key=39 status=stashed hit=false shard=-1 kicks=500 offchip=1008 timed=true
insert key=40 status=stashed hit=false shard=-1 kicks=500 offchip=1007 timed=true
insert key=5 status=updated hit=false shard=-1 kicks=0 offchip=4 timed=true
lookup key=5 status=- hit=true shard=-1 kicks=0 offchip=3 timed=true
lookup key=109 status=- hit=false shard=-1 kicks=0 offchip=3 timed=true
delete key=6 status=- hit=true shard=-1 kicks=0 offchip=2 timed=true
delete key=110 status=- hit=false shard=-1 kicks=0 offchip=1 timed=true
`

const goldenBlocked = `
insert key=1 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=2 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=3 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=4 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=5 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=6 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=7 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=8 status=placed hit=false shard=-1 kicks=0 offchip=3 timed=true
insert key=9 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=10 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=11 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=12 status=placed hit=false shard=-1 kicks=0 offchip=5 timed=true
insert key=13 status=placed hit=false shard=-1 kicks=0 offchip=8 timed=true
insert key=14 status=placed hit=false shard=-1 kicks=0 offchip=8 timed=true
insert key=15 status=placed hit=false shard=-1 kicks=0 offchip=8 timed=true
insert key=16 status=placed hit=false shard=-1 kicks=0 offchip=11 timed=true
insert key=17 status=placed hit=false shard=-1 kicks=0 offchip=11 timed=true
insert key=18 status=placed hit=false shard=-1 kicks=0 offchip=4 timed=true
insert key=19 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=20 status=placed hit=false shard=-1 kicks=0 offchip=7 timed=true
insert key=21 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=22 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=23 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=24 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=25 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=26 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=27 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=28 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=29 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=30 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=31 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=32 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=33 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=34 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=35 status=placed hit=false shard=-1 kicks=0 offchip=6 timed=true
insert key=36 status=placed hit=false shard=-1 kicks=2 offchip=10 timed=true
insert key=37 status=stashed hit=false shard=-1 kicks=500 offchip=1007 timed=true
insert key=38 status=stashed hit=false shard=-1 kicks=500 offchip=1006 timed=true
insert key=39 status=stashed hit=false shard=-1 kicks=500 offchip=1008 timed=true
insert key=40 status=stashed hit=false shard=-1 kicks=500 offchip=1006 timed=true
lookup key=5 status=- hit=true shard=-1 kicks=0 offchip=1 timed=true
lookup key=109 status=- hit=false shard=-1 kicks=0 offchip=3 timed=true
delete key=6 status=- hit=true shard=-1 kicks=0 offchip=3 timed=true
delete key=110 status=- hit=false shard=-1 kicks=0 offchip=3 timed=true
`
