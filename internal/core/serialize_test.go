package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/kv"
)

// buildMessyTable produces a table with stash pressure, deletions and
// updates — the richest state a snapshot must capture.
func buildMessyTable(t *testing.T) (*Table, []uint64) {
	t.Helper()
	tab := mustNew(t, Config{BucketsPerTable: 128, Seed: 91, MaxLoop: 50,
		StashEnabled: true})
	keys := fillKeys(92, 380) // ~99% load: guarantees stash entries
	for _, k := range keys {
		tab.Insert(k, k+1)
	}
	for _, k := range keys[:60] {
		tab.Delete(k)
	}
	for _, k := range keys[60:90] {
		tab.Insert(k, k*7)
	}
	return tab, keys
}

func TestSnapshotRoundTrip(t *testing.T) {
	tab, keys := buildMessyTable(t)
	if tab.StashLen() == 0 {
		t.Fatal("test needs stash pressure")
	}
	var buf bytes.Buffer
	n, err := tab.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Len() != tab.Len() || got.StashLen() != tab.StashLen() ||
		got.Copies() != tab.Copies() || got.RedundantWrites() != tab.RedundantWrites() {
		t.Fatalf("bookkeeping differs: Len %d/%d Stash %d/%d Copies %d/%d",
			got.Len(), tab.Len(), got.StashLen(), tab.StashLen(), got.Copies(), tab.Copies())
	}
	if !got.Meter().Snapshot().Same(tab.Meter().Snapshot()) {
		t.Fatal("meter not preserved")
	}
	for _, k := range keys[:60] {
		if _, ok := got.Lookup(k); ok {
			t.Fatalf("deleted key %#x resurrected by snapshot", k)
		}
	}
	for _, k := range keys[60:90] {
		if v, ok := got.Lookup(k); !ok || v != k*7 {
			t.Fatalf("updated key %#x wrong after load (ok=%v v=%d)", k, ok, v)
		}
	}
	for _, k := range keys[90:] {
		if v, ok := got.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %#x lost across snapshot", k)
		}
	}
	// The loaded table must keep working: fill some more and delete.
	extra := fillKeys(93, 20)
	for _, k := range extra {
		if got.Insert(k, k).Status == kv.Failed {
			t.Fatal("post-load insert failed")
		}
	}
	checkInv(t, got)
}

func TestSnapshotBlockedRoundTrip(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 48, Seed: 94, MaxLoop: 100,
		StashEnabled: true})
	keys := fillKeys(95, tab.Capacity()+10)
	for _, k := range keys {
		tab.Insert(k, k^3)
	}
	for _, k := range keys[:50] {
		tab.Delete(k)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := LoadBlocked(&buf)
	if err != nil {
		t.Fatalf("LoadBlocked: %v", err)
	}
	if got.Len() != tab.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), tab.Len())
	}
	for _, k := range keys[50:] {
		if v, ok := got.Lookup(k); !ok || v != k^3 {
			t.Fatalf("key %#x lost across blocked snapshot", k)
		}
	}
	checkBlockedInv(t, got)
}

// TestSnapshotBlockedMinCounterRoundTrip covers the kick-counter words of a
// blocked snapshot: a MinCounter table that has kicked reloads to the same
// bytes, kick words included.
func TestSnapshotBlockedMinCounterRoundTrip(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 48, Seed: 131, MaxLoop: 100,
		Policy: kv.MinCounter, Deletion: Tombstone, StashEnabled: true})
	keys := fillKeys(132, tab.Capacity()+10)
	for _, k := range keys {
		tab.Insert(k, k^5)
	}
	for _, k := range keys[:40] {
		tab.Delete(k)
	}
	if tab.Stats().Kicks == 0 {
		t.Fatal("test needs kick-outs")
	}
	kicked := false
	for _, w := range tab.kickCounts.Words() {
		kicked = kicked || w != 0
	}
	if !kicked {
		t.Fatal("test needs non-zero kick counters")
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBlocked(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadBlocked: %v", err)
	}
	var again bytes.Buffer
	if _, err := got.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("blocked MinCounter snapshot does not round-trip byte for byte")
	}
	for _, k := range keys[40:] {
		if v, ok := got.Lookup(k); !ok || v != k^5 {
			t.Fatalf("key %#x lost across blocked MinCounter snapshot", k)
		}
	}
	// The restored kick counters keep steering the resolver.
	for _, k := range fillKeys(133, 40) {
		if got.Insert(k, k).Status == kv.Failed {
			t.Fatal("post-load insert failed")
		}
	}
	checkBlockedInv(t, got)
}

func TestSnapshotKindMismatch(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 16, Seed: 96})
	tab.Insert(1, 1)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBlocked(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("LoadBlocked accepted a single-slot snapshot")
	}

	btab := mustNewBlocked(t, Config{BucketsPerTable: 16, Seed: 96})
	btab.Insert(1, 1)
	buf.Reset()
	if _, err := btab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Load accepted a blocked snapshot")
	}
}

func TestSnapshotCorruption(t *testing.T) {
	tab, _ := buildMessyTable(t)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] = 'X'
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte{}, raw...)
	bad[4] = 99
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncation at every power of two must error, never panic.
	for cut := 1; cut < len(raw); cut *= 2 {
		if _, err := Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// In format v3 every byte is covered by a section CRC and the file
	// trailer, so flipping any single bit must be rejected — spot-check a
	// spread of offsets here (the fault-injection suite does it
	// exhaustively).
	for off := 5; off < len(raw); off += 97 {
		bad = append([]byte{}, raw...)
		bad[off] ^= 1
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
	// The rejection must be a typed *CorruptError carrying the section.
	bad = append([]byte{}, raw...)
	bad[len(bad)/2] ^= 0x10
	_, err := Load(bytes.NewReader(bad))
	var ce *atomicio.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corruption error is %T (%v), want *CorruptError", err, err)
	}
	if ce.Kind != "table" || ce.Section == "" {
		t.Errorf("CorruptError missing context: %+v", ce)
	}
}

func TestSnapshotTombstoneAndPolicy(t *testing.T) {
	tab := mustNew(t, Config{BucketsPerTable: 64, Seed: 97, Deletion: Tombstone,
		Policy: kv.MinCounter, StashEnabled: true})
	keys := fillKeys(98, 120)
	for _, k := range keys {
		tab.Insert(k, k)
	}
	for _, k := range keys[:30] {
		tab.Delete(k)
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, k := range keys[:30] {
		if _, ok := got.Lookup(k); ok {
			t.Fatalf("tombstoned key %#x resurrected", k)
		}
	}
	for _, k := range keys[30:] {
		if _, ok := got.Lookup(k); !ok {
			t.Fatalf("key %#x lost", k)
		}
	}
	// Tombstoned buckets must stay reusable after load.
	for _, k := range fillKeys(99, 30) {
		if got.Insert(k, k).Status == kv.Failed {
			t.Fatal("post-load insert into tombstoned table failed")
		}
	}
	checkInv(t, got)
}

// TestSnapshotLenIsWhatWriteToWrites: the sharded container announces each
// shard's frame with SnapshotLen before the shard writes it, so it must be
// the exact byte count for every option that changes an array's length:
// blocked slot hints, MinCounter kick words, the wider counters of
// tombstones, and a stash.
func TestSnapshotLenIsWhatWriteToWrites(t *testing.T) {
	cfg := Config{BucketsPerTable: 64, Seed: 5, MaxLoop: 50, StashEnabled: true}
	mincounter, tombstone := cfg, cfg
	mincounter.Policy, tombstone.Deletion = kv.MinCounter, Tombstone
	tables := map[string]interface {
		kv.Table
		SnapshotLen() uint64
		WriteTo(w io.Writer) (int64, error)
	}{
		"single":     mustNew(t, cfg),
		"mincounter": mustNew(t, mincounter),
		"tombstone":  mustNew(t, tombstone),
		"blocked":    mustNewBlocked(t, cfg),
	}
	for name, tab := range tables {
		for _, k := range fillKeys(6, tab.Capacity()) {
			tab.Insert(k, k)
		}
		if tab.StashLen() == 0 {
			t.Fatalf("%s: the fill left the stash empty", name)
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if got := tab.SnapshotLen(); got != uint64(buf.Len()) {
			t.Errorf("%s: SnapshotLen %d, WriteTo wrote %d bytes", name, got, buf.Len())
		}
	}
}
