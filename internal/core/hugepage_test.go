package core

import (
	"bytes"
	"math/rand/v2"
	"path/filepath"
	"testing"
	"unsafe"

	"mccuckoo/internal/kv"
)

func TestHugeSpan(t *testing.T) {
	const mb = 1 << 20
	for _, c := range []struct{ addr, n, off, length uintptr }{
		{0, 0, 0, 0},
		{2 * mb, 2 * mb, 0, 2 * mb},
		{2 * mb, 2*mb - 1, 0, 0},
		{2*mb + 8192, 4 * mb, 2*mb - 8192, 2 * mb},
		{8192, 4*mb - 8192, 2*mb - 8192, 2 * mb},
		{8192, 4*mb - 16384, 0, 0}, // nearly 4 MiB, but no aligned page inside
		// A 64 MiB cell array whose ends are not aligned: 31 of 32 pages.
		{64*mb + 4096, 64 * mb, 2*mb - 4096, 62 * mb},
		// Rounding up past the top of the address space finds no page.
		{^uintptr(0) - mb, mb / 2, 0, 0},
	} {
		if off, length := hugeSpan(c.addr, c.n); off != c.off || length != c.length {
			t.Errorf("hugeSpan(%#x, %#x) = (%#x, %#x), want (%#x, %#x)", c.addr, c.n, off, length, c.off, c.length)
		}
	}
	// Every span is the whole run of aligned pages inside the array and
	// reaches nothing outside it.
	rng := rand.New(rand.NewPCG(1, 2))
	for range 10000 {
		addr, n := uintptr(rng.Uint64N(1<<30)), uintptr(rng.Uint64N(16*mb))
		off, length := hugeSpan(addr, n)
		first, end := (addr+hugePageSize-1)/hugePageSize, (addr+n)/hugePageSize
		pages := end - min(first, end)
		if length != pages*hugePageSize || off+length > n || (length > 0 && addr+off != first*hugePageSize) {
			t.Fatalf("hugeSpan(%#x, %#x) = (%#x, %#x), want the %d aligned pages inside", addr, n, off, length, pages)
		}
	}
}

func (s *tableState) state() *tableState { return s }

// TestHugePageAdvice checks that each way a table gets its arrays advises
// its cells, and only its cells, before use — New, NewBlocked, Grow and a
// load from a file of known size — and that a load from a stream of
// unknown length, whose arrays grow as they are read, advises nothing. It
// counts what the helper hands the kernel, not what the kernel grants,
// which is the host's policy. The cells of the tables at full size are 4
// MiB or more, so they hold an aligned 2 MiB page wherever they lie, and
// the blocked table's hints, 4 MiB too, would add theirs if advised.
func TestHugePageAdvice(t *testing.T) {
	type table interface {
		state() *tableState
		Insert(key, value uint64) kv.Outcome
		Grow(factor float64) error
		SaveFile(path string) error
	}
	kinds := []struct {
		name string
		cfg  Config
		new  func(Config) (table, error)
		file func(string) (table, error)
		read func([]byte) (table, error)
	}{
		{"single", Config{BucketsPerTable: 1 << 17, Seed: 3},
			func(c Config) (table, error) { return New(c) },
			func(p string) (table, error) { return LoadFile(p) },
			func(b []byte) (table, error) { return Load(bytes.NewReader(b)) }},
		{"blocked", Config{D: 4, Slots: 4, BucketsPerTable: 1 << 16, Seed: 4},
			func(c Config) (table, error) { return NewBlocked(c) },
			func(p string) (table, error) { return LoadBlockedFile(p) },
			func(b []byte) (table, error) { return LoadBlocked(bytes.NewReader(b)) }},
	}
	// cellSpan is the length of the aligned interior of a table's cells.
	cellSpan := func(s *tableState) int64 {
		_, length := hugeSpan(uintptr(unsafe.Pointer(unsafe.SliceData(s.cells))), uintptr(cap(s.cells)*16))
		return int64(length)
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			// advised builds a table and checks what the build advised:
			// the cells' span when whole, or nothing.
			advised := func(what string, whole bool, build func() (table, error)) table {
				t.Helper()
				before := hugeAdvised.Load()
				tab, err := build()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want := cellSpan(tab.state())
				if want == 0 {
					t.Fatalf("%s: the cells hold no aligned huge page", what)
				}
				if !whole {
					want = 0
				}
				if got := hugeAdvised.Load() - before; got != want {
					t.Errorf("%s advised %d bytes, want %d", what, got, want)
				}
				return tab
			}

			small := k.cfg
			small.BucketsPerTable /= 4
			grown, err := k.new(small)
			if err != nil {
				t.Fatal(err)
			}
			for key := uint64(1); key <= 1000; key++ {
				grown.Insert(key, key)
			}
			advised("Grow", true, func() (table, error) { return grown, grown.Grow(4) })

			tab := advised("New", true, func() (table, error) { return k.new(k.cfg) })
			path := filepath.Join(t.TempDir(), "table.snap")
			if err := tab.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			advised("LoadFile", true, func() (table, error) { return k.file(path) })
			var buf bytes.Buffer
			if _, err := tab.state().WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			advised("Load", false, func() (table, error) { return k.read(buf.Bytes()) })
		})
	}
}
