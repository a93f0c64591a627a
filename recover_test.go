package mccuckoo

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mccuckoo/internal/hashutil"
)

func TestPublicSaveLoadFile(t *testing.T) {
	tab, err := New(600, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(22)
	keys := make([]uint64, 400)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i]*2)
	}
	path := filepath.Join(t.TempDir(), "table.mck")
	if err := tab.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	for _, k := range keys {
		if v, ok := got.Lookup(k); !ok || v != k*2 {
			t.Fatalf("key %#x lost across file round trip", k)
		}
	}

	// A flipped bit in the file is rejected with the typed error.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupted file not rejected with *CorruptError: %v", err)
	}
}

func TestPublicBlockedSaveLoadFile(t *testing.T) {
	tab, err := NewBlocked(300, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(24)
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i])
	}
	path := filepath.Join(t.TempDir(), "blocked.mck")
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBlockedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, ok := got.Lookup(k); !ok || v != k {
			t.Fatalf("key %#x lost across blocked file round trip", k)
		}
	}
}

func TestPublicShardedSaveLoadFile(t *testing.T) {
	tab, err := NewSharded(2000, 8, WithSeed(25))
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(26)
	keys := make([]uint64, 1200)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i]^5)
	}
	path := filepath.Join(t.TempDir(), "sharded.mck")
	if err := tab.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadShardedFile(path)
	if err != nil {
		t.Fatalf("LoadShardedFile: %v", err)
	}
	if got.Shards() != tab.Shards() || got.Len() != tab.Len() {
		t.Fatalf("shape differs: shards %d/%d len %d/%d",
			got.Shards(), tab.Shards(), got.Len(), tab.Len())
	}
	for _, k := range keys {
		if v, ok := got.Lookup(k); !ok || v != k^5 {
			t.Fatalf("key %#x lost across sharded file round trip", k)
		}
	}
}

// TestPublicShardedSnapshotReader covers the reader form of sharded
// snapshots: WriteTo and LoadSharded round-trip a seeded table, and a
// truncated copy is rejected as a *CorruptError that unwraps to the
// underlying io error and counts as one corrupt load.
func TestPublicShardedSnapshotReader(t *testing.T) {
	tab, err := NewSharded(2000, 8, WithSeed(35))
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(36)
	keys := make([]uint64, 1200)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i]^7)
	}
	var snap bytes.Buffer
	if _, err := tab.WriteTo(&snap); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := LoadSharded(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	if got.Len() != tab.Len() {
		t.Fatalf("Len %d after the round trip, want %d", got.Len(), tab.Len())
	}
	for _, k := range keys {
		if v, ok := got.Lookup(k); !ok || v != k^7 {
			t.Fatalf("key %#x reads (%d, %v) after the round trip", k, v, ok)
		}
	}

	tel := NewTelemetry()
	_, err = LoadSharded(bytes.NewReader(snap.Bytes()[:snap.Len()/2]), WithTelemetry(tel))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated snapshot: %v, want *CorruptError", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated snapshot: %v does not unwrap to io.ErrUnexpectedEOF", err)
	}
	var out strings.Builder
	if err := tel.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mccuckoo_corrupt_loads_total 1\n") {
		t.Fatalf("truncated load not counted once:\n%s", out.String())
	}
}

// The corruption-healing behaviour of Repair is exercised through the raw
// accessors of internal/core's fault matrix; the public surface promises
// that Repair on a healthy table reports no changes and damages nothing.
func TestPublicRepairHealthy(t *testing.T) {
	tab, err := New(400, WithSeed(27))
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(28)
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i]+9)
	}
	rep := tab.Repair()
	if rep.Any() {
		t.Fatalf("repair of healthy table reported changes: %+v", rep)
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k+9 {
			t.Fatalf("key %#x damaged by repair", k)
		}
	}

	blocked, err := NewBlocked(200, WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	blocked.Insert(5, 50)
	if rep := blocked.Repair(); rep.Any() {
		t.Fatalf("blocked repair reported changes: %+v", rep)
	}

	sh, err := NewSharded(800, 4, WithSeed(30))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < 400; i++ {
		sh.Insert(i*0x9e3779b97f4a7c15, i)
	}
	if rep := sh.Repair(); rep.Any() {
		t.Fatalf("sharded repair reported changes: %+v", rep)
	}
}

func TestPublicAutoGrow(t *testing.T) {
	tab, err := New(256, WithSeed(31),
		WithAutoGrow(AutoGrowPolicy{StashThreshold: 4}))
	if err != nil {
		t.Fatal(err)
	}
	before := tab.Capacity()
	s := uint64(32)
	keys := make([]uint64, 4*before)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i])
	}
	if tab.Capacity() <= before {
		t.Fatalf("capacity did not grow: %d", tab.Capacity())
	}
	st := tab.Stats()
	if st.Grows == 0 || st.GrowAttempts == 0 {
		t.Fatalf("grow stats not surfaced: %+v", st)
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k {
			t.Fatalf("key %#x lost during auto-grow", k)
		}
	}
}

func TestPublicShardedGrow(t *testing.T) {
	tab, err := NewSharded(512, 4, WithSeed(33))
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(34)
	keys := make([]uint64, 400)
	for i := range keys {
		keys[i] = hashutil.SplitMix64(&s)
		tab.Insert(keys[i], keys[i]*7)
	}
	before := tab.Capacity()
	if err := tab.Grow(2.0); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if tab.Capacity() < 2*before {
		t.Fatalf("capacity %d after 2x grow of %d", tab.Capacity(), before)
	}
	for _, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != k*7 {
			t.Fatalf("key %#x lost across sharded grow", k)
		}
	}
}

// TestLoadersInTurnCountOnlyCorruption tries the file loaders in turn, as a
// node restoring a snapshot of unknown kind does (sharded, then single-slot,
// then blocked), with one Telemetry. A loader handed an intact file of
// another kind declines it without counting a corrupt load, so a healthy
// restore reads 0 in mccuckoo_corrupt_loads_total; a damaged blocked
// snapshot counts once, at its own loader.
func TestLoadersInTurnCountOnlyCorruption(t *testing.T) {
	dir := t.TempDir()
	single, err := New(600, WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := NewBlocked(600, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 300; k++ {
		single.Insert(k, k)
		blocked.Insert(k, k)
	}
	singlePath, blockedPath := filepath.Join(dir, "single.mck"), filepath.Join(dir, "blocked.mck")
	if err := single.SaveFile(singlePath); err != nil {
		t.Fatal(err)
	}
	if err := blocked.SaveFile(blockedPath); err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	// loadInTurn returns the kind that accepted path and the last error.
	loadInTurn := func(path string) (string, error) {
		opts := []Option{WithTelemetry(tel)}
		_, err := LoadShardedFile(path, opts...)
		if err == nil {
			return "sharded", nil
		}
		if _, err = LoadFile(path, opts...); err == nil {
			return "single", nil
		}
		if _, err = LoadBlockedFile(path, opts...); err == nil {
			return "blocked", nil
		}
		return "", err
	}
	corruptLoads := func() string {
		var out strings.Builder
		if err := tel.WriteMetrics(&out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "mccuckoo_corrupt_loads_total ") {
				return strings.TrimPrefix(line, "mccuckoo_corrupt_loads_total ")
			}
		}
		t.Fatalf("no corrupt-load counter in:\n%s", out.String())
		return ""
	}
	for _, tc := range []struct{ path, kind string }{{singlePath, "single"}, {blockedPath, "blocked"}} {
		if kind, err := loadInTurn(tc.path); kind != tc.kind {
			t.Fatalf("%s snapshot loaded as %q: %v", tc.kind, kind, err)
		}
		if n := corruptLoads(); n != "0" {
			t.Fatalf("healthy %s restore counted %s corrupt loads, want 0", tc.kind, n)
		}
	}

	// One bit flipped in the blocked snapshot's buckets section, which
	// starts after the 67-byte header and 61-byte bookkeeping sections.
	raw, err := os.ReadFile(blockedPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[67+61+16] ^= 0x08
	if err := os.WriteFile(blockedPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadInTurn(blockedPath)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Kind != "blocked" || ce.Section != "buckets" {
		t.Fatalf("damaged blocked snapshot: %v, want a *CorruptError in its buckets section", err)
	}
	if n := corruptLoads(); n != "1" {
		t.Fatalf("damaged blocked snapshot counted %s corrupt loads, want 1", n)
	}
}
