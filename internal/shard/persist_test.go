package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/core"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/kv"
)

// load reads a sharded snapshot from r.
func load(r io.Reader) (*Sharded, error) { return Read(atomicio.NewReader(r)) }

func fillSharded(t testing.TB, s *Sharded, seed uint64, n int) map[uint64]uint64 {
	t.Helper()
	expect := make(map[uint64]uint64, n)
	k := seed | 1
	for i := 0; i < n; i++ {
		k = k*6364136223846793005 + 1442695040888963407
		key := k | 1
		if s.Insert(key, key^0x77).Status != kv.Failed {
			expect[key] = key ^ 0x77
		}
	}
	return expect
}

func TestShardedSnapshotRoundTrip(t *testing.T) {
	s := newSharded(t, 8, 32, 7)
	expect := fillSharded(t, s, 8, 500)
	for k := range expect {
		s.Delete(k)
		delete(expect, k)
		break // one deletion, to cover deletedAny in the frames
	}
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.NumShards() != s.NumShards() || got.Len() != s.Len() {
		t.Fatalf("shape differs: shards %d/%d len %d/%d",
			got.NumShards(), s.NumShards(), got.Len(), s.Len())
	}
	for k, v := range expect {
		if gv, ok := got.Lookup(k); !ok || gv != v {
			t.Fatalf("key %#x = (%d,%v) after round trip", k, gv, ok)
		}
	}
	// Routing must be identical: inserts on the restored table land on the
	// same shards, so cross-checking per-shard item counts is exact.
	a, b := s.ShardStats(), got.ShardStats()
	for i := range a.Shards {
		if a.Shards[i].Items != b.Shards[i].Items {
			t.Fatalf("shard %d items differ: %d vs %d", i, a.Shards[i].Items, b.Shards[i].Items)
		}
	}
}

func TestShardedSnapshotBlockedInner(t *testing.T) {
	s, err := New(4, 9, func(i int) (Inner, error) {
		return core.NewBlocked(core.Config{
			BucketsPerTable: 8,
			Seed:            hashutil.Mix64(9 + uint64(i)*0x9e3779b97f4a7c15),
			StashEnabled:    true,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	expect := fillSharded(t, s, 10, 200)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for k, v := range expect {
		if gv, ok := got.Lookup(k); !ok || gv != v {
			t.Fatalf("key %#x = (%d,%v) after blocked round trip", k, gv, ok)
		}
	}
}

func TestShardedSaveLoadFile(t *testing.T) {
	s := newSharded(t, 4, 16, 11)
	expect := fillSharded(t, s, 12, 150)
	path := filepath.Join(t.TempDir(), "sharded.snap")
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	for k, v := range expect {
		if gv, ok := got.Lookup(k); !ok || gv != v {
			t.Fatalf("key %#x lost across file round trip", k)
		}
	}
	// Trailing bytes are rejected.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	_, err = LoadFile(path)
	var ce *atomicio.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("trailing bytes not rejected with CorruptError: %v", err)
	}
}

func TestShardedLoadRejectsBadHeader(t *testing.T) {
	s := newSharded(t, 2, 8, 13)
	fillSharded(t, s, 14, 30)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, off := range []int{0, 4, 5, 9, 17} { // magic, version, count, seed, kind
		bad := append([]byte{}, raw...)
		bad[off] ^= 0xff
		if _, err := load(bytes.NewReader(bad)); err == nil {
			t.Errorf("header corruption at %d accepted", off)
		}
	}
	if _, err := load(bytes.NewReader(raw[:10])); err == nil {
		t.Error("truncated header accepted")
	}
}

// A frame longer than the snapshot it holds is rejected even when every
// checksum passes: the loader reads each shard's snapshot in place and
// requires it to fill its frame.
func TestShardedLoadRejectsUnfilledFrame(t *testing.T) {
	s := newSharded(t, 1, 8, 19)
	fillSharded(t, s, 20, 20)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const head = 22 // magic, version, count, seed, kind, header CRC
	frameLen := binary.LittleEndian.Uint64(raw[head:])
	bad := append([]byte{}, raw[:head]...)
	bad = binary.LittleEndian.AppendUint64(bad, frameLen+1)
	bad = append(bad, raw[head+8:head+8+int(frameLen)]...)
	bad = append(bad, 0) // the byte the snapshot leaves unread
	bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(bad, crc32.MakeTable(crc32.Castagnoli)))
	_, err := load(bytes.NewReader(bad))
	var ce *atomicio.CorruptError
	if !errors.As(err, &ce) || ce.Kind != "table" || ce.Section != "trailer" {
		t.Fatalf("unfilled frame: %v, want a *CorruptError at the table snapshot's trailer", err)
	}
}

// Grow on a sharded table with stash pressure: capacity multiplies, stashes
// drain, every key survives.
func TestShardedGrowWithStash(t *testing.T) {
	s := newSharded(t, 4, 8, 15)
	expect := fillSharded(t, s, 16, s.Capacity()+s.Capacity()/4)
	if s.StashLen() == 0 {
		t.Fatal("test needs stash pressure")
	}
	before := s.Capacity()
	if err := s.Grow(2.0); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if s.Capacity() < 2*before {
		t.Fatalf("capacity %d after 2x grow of %d", s.Capacity(), before)
	}
	if s.StashLen() != 0 {
		t.Fatalf("stash not drained: %d", s.StashLen())
	}
	for k, v := range expect {
		if gv, ok := s.Lookup(k); !ok || gv != v {
			t.Fatalf("key %#x = (%d,%v) after grow", k, gv, ok)
		}
	}
}

// Repair on a healthy sharded table is a no-op. The corruption-healing
// behaviour itself is exercised per table kind in core and faultinject; here
// the point is that the per-shard reports merge into a sane aggregate.
func TestShardedRepairHealthyNoOp(t *testing.T) {
	s := newSharded(t, 4, 16, 17)
	expect := fillSharded(t, s, 18, 200)
	rep := s.Repair()
	if rep.Any() {
		t.Fatalf("repair of healthy sharded table reported changes: %v", rep)
	}
	if rep.SizeBefore != s.Len()-s.StashLen() {
		t.Fatalf("merged SizeBefore %d, want %d", rep.SizeBefore, s.Len()-s.StashLen())
	}
	for k, v := range expect {
		if gv, ok := s.Lookup(k); !ok || gv != v {
			t.Fatalf("key %#x damaged by repair", k)
		}
	}
}

// FuzzLoadSharded feeds arbitrary bytes to the sharded loader. Every input
// either loads a table each of whose shards takes an insert and finds it
// again, or is rejected with an *atomicio.CorruptError; an intact file of
// another kind (one that starts with a table snapshot's or a checkpoint's
// magic) may instead be declined with atomicio.ErrOtherKind. No input
// panics.
func FuzzLoadSharded(f *testing.F) {
	// Genuine containers with single-slot and blocked shards, deletions and
	// stashed items, each with a few bit-flipped variants that start the
	// corpus inside the header, frame and trailer rejection paths, and a
	// bare table snapshot.
	add := func(s *Sharded) {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		for _, off := range []int{2, 30, len(raw) / 3, len(raw) - 2} {
			bad := bytes.Clone(raw)
			bad[off] ^= 0x20
			f.Add(bad)
		}
	}
	single := newSharded(f, 4, 8, 21)
	for k := range fillSharded(f, single, 22, 120) {
		if k%3 == 0 {
			single.Delete(k)
		}
	}
	add(single)
	add(newSharded(f, 1, 8, 23))
	blocked, err := New(2, 24, func(i int) (Inner, error) {
		return core.NewBlocked(core.Config{BucketsPerTable: 4, Seed: uint64(25 + i), StashEnabled: true})
	})
	if err != nil {
		f.Fatal(err)
	}
	fillSharded(f, blocked, 26, 80)
	add(blocked)
	var table bytes.Buffer
	if _, err := single.WriteShardTo(0, &table); err != nil {
		f.Fatal(err)
	}
	f.Add(table.Bytes())
	f.Add([]byte(atomicio.MagicSharded))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := load(bytes.NewReader(data))
		if err != nil {
			var ce *atomicio.CorruptError
			otherKind := bytes.HasPrefix(data, []byte(atomicio.MagicTable)) ||
				bytes.HasPrefix(data, []byte(atomicio.MagicCheckpoint))
			if !errors.As(err, &ce) && !(otherKind && errors.Is(err, atomicio.ErrOtherKind)) {
				t.Fatalf("Load: %v, want a *CorruptError", err)
			}
			return
		}
		for i, key := 0, uint64(1); i < s.NumShards(); key++ {
			if s.shardIndex(key) != i {
				continue
			}
			if out := s.Insert(key, ^key); out.Status == kv.Failed {
				t.Fatalf("shard %d: insert of key %d failed", i, key)
			}
			if v, ok := s.Lookup(key); !ok || v != ^key {
				t.Fatalf("shard %d: key %d reads (%d, %v) after its insert", i, key, v, ok)
			}
			i++
		}
	})
}
