package shard

import (
	"errors"
	"io"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/core"
)

// Sharded snapshot format, version 1, written and read through
// internal/atomicio's checksummed stream: a header section, one frame per
// shard, each frame a complete core snapshot (itself section-checksummed,
// v3), then the file trailer.
//
//	"MCSH" | u8 version | u32 shardCount | u64 seed | u8 innerKind | u32 headerCRC
//	shardCount × ( u64 frameLen | frameLen bytes )
//	u32 fileCRC
//
// The loader reads each shard's snapshot in place, bounded by its frame
// length, and rejects a frame the snapshot does not fill. Every byte is
// covered by a checksum — the header by headerCRC, frame bodies by the core
// v3 sections, frame lengths by the file trailer — so any bit flip is
// detected.

const (
	shardVersion = 1
	// innerBlocked is the header's inner kind byte for blocked shard
	// tables: the core kind byte (core.BlockedTable.Kind). Single-slot
	// tables record 0.
	innerBlocked = 1
)

// WriteTo serializes every shard, each under its read lock: the shard's
// table announces its snapshot's length and writes the snapshot as its
// frame under one hold. The per-shard snapshots are individually
// consistent; for a cross-shard-consistent file, quiesce writers first
// (SaveFile from a maintenance window, or wrap the call in
// application-level exclusion). It implements io.WriterTo.
//
//mcvet:deterministic
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	return s.WriteSnapshot(atomicio.NewWriter(w))
}

// SnapshotLen returns the length of the container WriteSnapshot writes. A
// caller that frames it excludes writers until the container is written.
func (s *Sharded) SnapshotLen() uint64 {
	n := uint64(4+1+4+8+1+4) + 4 // the header section, the trailer
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += 8 + sh.tab.SnapshotLen()
		sh.mu.RUnlock()
	}
	return n
}

// WriteSnapshot is WriteTo into out, a whole file's stream or a frame's.
//
//mcvet:deterministic
func (s *Sharded) WriteSnapshot(out *atomicio.Writer) (int64, error) {
	out.BeginSection()
	out.Bytes([]byte(atomicio.MagicSharded))
	out.U8(shardVersion)
	out.U32(uint32(len(s.shards)))
	out.U64(s.seed)
	out.U8(s.innerKind())
	out.EndSection()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out.Frame(sh.tab.SnapshotLen(), sh.tab.WriteSnapshot)
		sh.mu.RUnlock()
	}
	return out.Finish()
}

// WriteShardTo writes shard i's table, under the shard's read lock, as that
// table's own core snapshot (single or blocked v3) rather than the sharded
// container, so core.Load or core.LoadBlocked restores it.
//
//mcvet:deterministic
func (s *Sharded) WriteShardTo(i int, w io.Writer) (int64, error) {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tab.WriteTo(w)
}

// SaveFile writes a crash-safe snapshot of all shards to path (temp file +
// fsync + atomic rename), with the same per-shard consistency caveat as
// WriteTo.
func (s *Sharded) SaveFile(path string) error { return atomicio.WriteFile(path, s.WriteTo) }

// LoadFile loads a sharded snapshot file written by SaveFile, rejecting
// trailing bytes after the trailer.
func LoadFile(path string) (*Sharded, error) { return atomicio.LoadFile(path, Read) }

// Read reads a sharded snapshot written by WriteTo from s, a whole file's
// stream or a frame's, and rebuilds the table. Any truncated or corrupted
// input is rejected with an *atomicio.CorruptError.
func Read(s *atomicio.Reader) (*Sharded, error) {
	s.BeginSection("header")
	s.Magic("sharded", atomicio.MagicSharded)
	version, shardCount, seed, kind := s.U8(), s.U32(), s.U64(), s.U8()
	s.EndSection()
	switch {
	case s.Err() != nil:
	case version != shardVersion:
		s.Failf("unsupported sharded snapshot version %d (want %d)", version, shardVersion)
	case shardCount == 0 || shardCount > MaxShards || shardCount&(shardCount-1) != 0:
		s.Failf("invalid shard count %d", shardCount)
	case kind > innerBlocked:
		s.Failf("unknown inner table kind %d", kind)
	}
	if s.Err() != nil {
		return nil, s.Err()
	}

	// Each shard's snapshot is read in place. A frame holding an intact
	// file of another kind is still a damaged container.
	s.Section("frame")
	sh, err := New(int(shardCount), seed, func(i int) (tab Inner, err error) {
		frame := s.Frame(s.U64())
		if kind == innerBlocked {
			tab, err = core.ReadBlocked(frame)
		} else {
			tab, err = core.Read(frame)
		}
		if err == nil {
			err = frame.End()
		} else if errors.Is(err, atomicio.ErrOtherKind) {
			s.Failf("shard %d: %v", i, err)
			err = s.Err()
		}
		return tab, err
	})
	if err != nil {
		return nil, err
	}
	s.Trailer()
	if s.Err() != nil {
		return nil, s.Err()
	}
	return sh, nil
}

// innerKind is the shard tables' core kind byte, which the snapshot header
// records as is.
func (s *Sharded) innerKind() uint8 {
	sh := &s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tab.Kind()
}
