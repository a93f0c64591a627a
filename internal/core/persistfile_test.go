package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mccuckoo/internal/atomicio"
)

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	tab, keys := buildMessyTable(t)
	path := filepath.Join(t.TempDir(), "table.snap")
	if err := tab.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.Len() != tab.Len() || got.StashLen() != tab.StashLen() {
		t.Fatalf("bookkeeping differs: Len %d/%d", got.Len(), tab.Len())
	}
	for _, k := range keys[60:] {
		want, wok := tab.Lookup(k)
		v, ok := got.Lookup(k)
		if ok != wok || v != want {
			t.Fatalf("key %#x differs after file round trip", k)
		}
	}
	checkInv(t, got)
}

func TestSaveFileBlockedRoundTrip(t *testing.T) {
	tab := mustNewBlocked(t, Config{BucketsPerTable: 32, Seed: 61, MaxLoop: 100, StashEnabled: true})
	keys := fillKeys(62, tab.Capacity())
	for _, k := range keys {
		tab.Insert(k, k*3)
	}
	path := filepath.Join(t.TempDir(), "blocked.snap")
	if err := tab.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadBlockedFile(path)
	if err != nil {
		t.Fatalf("LoadBlockedFile: %v", err)
	}
	for _, k := range keys {
		want, wok := tab.Lookup(k)
		v, ok := got.Lookup(k)
		if ok != wok || v != want {
			t.Fatalf("key %#x differs after file round trip", k)
		}
	}
	checkBlockedInv(t, got)
}

// SaveFile replaces an existing snapshot atomically: after a second save the
// file holds the newer state, and no temp files are left behind.
func TestSaveFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.snap")
	tab := mustNew(t, Config{BucketsPerTable: 32, Seed: 63, StashEnabled: true})
	tab.Insert(1, 100)
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	tab.Insert(2, 200)
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Lookup(2); !ok || v != 200 {
		t.Fatalf("second save not visible: (%d,%v)", v, ok)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory not clean after saves: %v", entries)
	}
}

// A snapshot file with appended garbage is rejected: a file either is a
// snapshot or is not.
func TestLoadFileRejectsTrailingBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.snap")
	tab := mustNew(t, Config{BucketsPerTable: 16, Seed: 64, StashEnabled: true})
	tab.Insert(7, 7)
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = LoadFile(path)
	var ce *atomicio.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("trailing byte not rejected with CorruptError: %v", err)
	}
	if ce.Section != "trailer" {
		t.Fatalf("wrong section: %+v", ce)
	}
}

func TestLoadFileRejectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.snap")
	tab := mustNew(t, Config{BucketsPerTable: 16, Seed: 65, StashEnabled: true})
	tab.Insert(7, 7)
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}
