package mccuckoo

import (
	"bytes"
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
