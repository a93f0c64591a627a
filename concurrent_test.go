package mccuckoo

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// concurrentKinds builds a Concurrent around each single-writer kind,
// passing opts to both constructors; the second result is the wrapped table
// as an io.WriterTo.
func concurrentKinds(t *testing.T, opts ...Option) map[string]func() (*Concurrent, io.WriterTo) {
	t.Helper()
	return map[string]func() (*Concurrent, io.WriterTo){
		"single": func() (*Concurrent, io.WriterTo) {
			tab, err := New(2048, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return NewConcurrent(tab), tab
		},
		"blocked": func() (*Concurrent, io.WriterTo) {
			tab, err := NewBlocked(2048, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return NewConcurrent(tab), tab
		},
	}
}

// TestConcurrentRecordsTelemetry: telemetry attached to a Table or Blocked
// carries over to its Concurrent wrapper — every operation, pathwise
// inserts included, is counted and the item gauge is live, with no
// SampleTelemetry call.
func TestConcurrentRecordsTelemetry(t *testing.T) {
	const n = 100
	for _, name := range []string{"single", "blocked"} {
		t.Run(name, func(t *testing.T) {
			tel := NewTelemetry()
			c, _ := concurrentKinds(t, WithTelemetry(tel))[name]()
			for k := uint64(1); k <= n; k++ {
				if k%2 == 0 {
					c.InsertPathwise(k, k)
				} else {
					c.Insert(k, k)
				}
			}
			for k := uint64(1); k <= n; k++ {
				c.Lookup(k)
			}
			var buf bytes.Buffer
			if err := tel.WriteMetrics(&buf); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf(`mccuckoo_ops_total{op="insert"} %d`, n),
				fmt.Sprintf(`mccuckoo_ops_total{op="lookup"} %d`, n),
				fmt.Sprintf("mccuckoo_items %d", n),
			} {
				if !strings.Contains(buf.String(), want+"\n") {
					t.Errorf("exposition lacks %q", want)
				}
			}
		})
	}
}

// TestConcurrentSaveFileMatchesWriteTo: Concurrent.SaveFile writes exactly
// the wrapped table's own snapshot, so LoadFile and LoadBlockedFile read it.
func TestConcurrentSaveFileMatchesWriteTo(t *testing.T) {
	for name, build := range concurrentKinds(t, WithSeed(9)) {
		t.Run(name, func(t *testing.T) {
			c, tab := build()
			for k := uint64(1); k <= 1500; k++ {
				c.Insert(k, k*5)
			}
			for k := uint64(1); k <= 1500; k += 3 {
				c.Delete(k)
			}
			path := filepath.Join(t.TempDir(), "table.snap")
			if err := c.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := tab.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("SaveFile wrote %d bytes that differ from the table's %d-byte WriteTo", len(got), want.Len())
			}
		})
	}
}

// TestConcurrentStatsMatchTable: a Concurrent around a Table or Blocked and
// a bare one built with the same options, fed one sequence with stash
// pressure, misses, deletes and batched lookups, answer alike and report the
// same Stats field by field. The lock layer's readers run the table's own
// probe, so their lookups, hits and stash probes count as Lookup's do.
func TestConcurrentStatsMatchTable(t *testing.T) {
	opts := []Option{WithSeed(7), WithMaxLoop(4)}
	for name, pair := range map[string]func(t *testing.T) (bare, conc BatchStore, inserts int){
		"single": func(t *testing.T) (BatchStore, BatchStore, int) {
			a, err1 := New(300, opts...)
			b, err2 := New(300, opts...)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			return a, NewConcurrent(b), 320
		},
		"blocked": func(t *testing.T) (BatchStore, BatchStore, int) {
			a, err1 := NewBlocked(270, opts...)
			b, err2 := NewBlocked(270, opts...)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			return a, NewConcurrent(b), 280
		},
	} {
		t.Run(name, func(t *testing.T) {
			bare, conc, n := pair(t)
			lookups := func(keys []uint64) {
				for _, k := range keys {
					v1, ok1 := bare.Lookup(k)
					v2, ok2 := conc.Lookup(k)
					if ok1 != ok2 || v1 != v2 {
						t.Fatalf("Lookup(%d): table (%d,%v), concurrent (%d,%v)", k, v1, ok1, v2, ok2)
					}
				}
				for _, s := range []BatchStore{bare, conc} {
					s.LookupBatchInto(keys[:1], make([]uint64, 1), make([]bool, 1))
					s.LookupBatchInto(keys, make([]uint64, len(keys)), make([]bool, len(keys)))
				}
			}
			all := keyRange(1, uint64(2*n)) // the upper half misses
			for _, s := range []BatchStore{bare, conc} {
				for _, k := range all[:n] {
					s.Insert(k, k*3)
				}
			}
			if bare.StashLen() == 0 {
				t.Fatal("no item was stashed: the sequence lost its stash pressure")
			}
			lookups(all)
			for _, s := range []BatchStore{bare, conc} {
				for _, k := range all[:n] {
					if k%5 == 0 {
						s.Delete(k)
					}
				}
			}
			lookups(all)
			got, want := conc.Stats(), bare.Stats()
			if want.StashProbes == 0 {
				t.Fatal("no lookup probed the stash")
			}
			if got != want {
				t.Fatalf("Stats differ:\nconcurrent %+v\ntable      %+v", got, want)
			}
		})
	}
}
