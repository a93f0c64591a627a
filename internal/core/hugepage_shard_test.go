package core_test

import (
	"path/filepath"
	"testing"

	"mccuckoo"
	"mccuckoo/internal/core"
	"mccuckoo/internal/shard"
)

// TestShardedHugePageAdvice checks the advice at the sharded layer: a
// sharded file's loader advises every large shard's cells as it reads them,
// and a served table's shards, whose arrays are far below 2 MiB, advise
// nothing.
func TestShardedHugePageAdvice(t *testing.T) {
	before := core.HugeAdvised()
	if _, err := mccuckoo.NewSharded(1<<17, 8); err != nil {
		t.Fatal(err)
	}
	if got := core.HugeAdvised() - before; got != 0 {
		t.Errorf("NewSharded(1<<17, 8) advised %d bytes, want none", got)
	}

	// Two shards of 6 MiB cells: each holds two or three aligned pages
	// wherever it lies, so only both shards together advise 8 MiB or more.
	const shards, cellBytes = 2, 3 << 17 * 16
	s, err := shard.New(shards, 5, func(i int) (shard.Inner, error) {
		return core.New(core.Config{BucketsPerTable: 1 << 17, Seed: uint64(6 + i)})
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		s.Insert(k, k)
	}
	path := filepath.Join(t.TempDir(), "sharded.snap")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before = core.HugeAdvised()
	if _, err := shard.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	got := core.HugeAdvised() - before
	if got < shards*2*core.HugePageSize || got > shards*cellBytes || got%core.HugePageSize != 0 {
		t.Errorf("loading %d shards of %d-byte cells advised %d bytes, want whole pages, at least %d", shards, cellBytes, got, shards*2*core.HugePageSize)
	}
}
