package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/core"
)

// Sharded snapshot format, version 1: a small checksummed header followed by
// one length-prefixed frame per shard, each frame a complete core snapshot
// (itself section-checksummed, v3), then a whole-file CRC32C trailer.
//
//	"MCSH" | u8 version | u32 shardCount | u64 seed | u8 innerKind | u32 headerCRC
//	shardCount × ( u64 frameLen | frameLen bytes )
//	u32 fileCRC
//
// Frames are buffered on both paths: core's loader reads through its own
// internal buffering, so each frame must be handed over as an exactly-sized
// byte slice, and the loader cross-checks that the core snapshot consumed
// the whole frame. Every field is covered by a checksum — header by
// headerCRC, frame bodies by the core v3 sections, frame lengths by the file
// trailer — so any bit flip is detected.

const (
	shardMagic   = "MCSH"
	shardVersion = 1
	// innerSingle/innerBlocked name the shard table kind in the header:
	// the core tables' own kind bytes (core.Table.Kind and
	// core.BlockedTable.Kind).
	innerSingle  = 0
	innerBlocked = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxShardFrame bounds one shard's snapshot size (64 GiB) so a corrupt
// length field cannot demand an absurd allocation; real frames hit the core
// checksums long before this.
const maxShardFrame = 1 << 36

// WriteTo serializes every shard, each under its read lock. The per-shard
// snapshots are individually consistent; for a cross-shard-consistent file,
// quiesce writers first (SaveFile from a maintenance window, or wrap the
// call in application-level exclusion). It implements io.WriterTo.
//
//mcvet:deterministic
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	var head bytes.Buffer
	head.WriteString(shardMagic)
	head.WriteByte(shardVersion)
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(s.shards)))
	head.Write(u32[:])
	binary.LittleEndian.PutUint64(u64[:], s.seed)
	head.Write(u64[:])
	head.WriteByte(s.innerKind())
	binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(head.Bytes(), castagnoli))
	head.Write(u32[:])

	fileCRC := crc32.Checksum(head.Bytes(), castagnoli)
	written, err := writeCounted(w, head.Bytes())
	if err != nil {
		return written, err
	}

	var frame bytes.Buffer
	for i := range s.shards {
		frame.Reset()
		if _, err := s.WriteShardTo(i, &frame); err != nil {
			return written, fmt.Errorf("shard: serializing shard %d: %w", i, err)
		}
		binary.LittleEndian.PutUint64(u64[:], uint64(frame.Len()))
		fileCRC = crc32.Update(fileCRC, castagnoli, u64[:])
		fileCRC = crc32.Update(fileCRC, castagnoli, frame.Bytes())
		n, err := writeCounted(w, u64[:])
		written += n
		if err != nil {
			return written, err
		}
		n, err = writeCounted(w, frame.Bytes())
		written += n
		if err != nil {
			return written, err
		}
	}
	binary.LittleEndian.PutUint32(u32[:], fileCRC)
	n, err := writeCounted(w, u32[:])
	written += n
	return written, err
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
func (s *Sharded) SaveFile(path string) error {
	return atomicio.WriteFile(path, func(f *os.File) error {
		_, err := s.WriteTo(f)
		return err
	})
}

// Load reads a sharded snapshot written by WriteTo and rebuilds the table.
// Any truncated or corrupted input is rejected with a *core.CorruptError.
func Load(r io.Reader) (*Sharded, error) {
	s, _, err := load(r)
	return s, err
}

// LoadFile loads a sharded snapshot file written by SaveFile, additionally
// rejecting trailing bytes after the trailer.
func LoadFile(path string) (*Sharded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: open snapshot: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("shard: stat snapshot: %w", err)
	}
	s, n, err := load(f)
	if err != nil {
		return nil, err
	}
	if n != info.Size() {
		return nil, &core.CorruptError{Kind: "sharded", Section: "trailer", Offset: n,
			Reason: fmt.Sprintf("%d trailing bytes after snapshot end", info.Size()-n)}
	}
	return s, nil
}

func load(r io.Reader) (*Sharded, int64, error) {
	corrupt := func(section string, off int64, reason string, err error) (*Sharded, int64, error) {
		return nil, off, &core.CorruptError{Kind: "sharded", Section: section, Offset: off,
			Reason: reason, Err: err}
	}

	head := make([]byte, 4+1+4+8+1+4)
	n, err := io.ReadFull(r, head)
	read := int64(n)
	if err != nil {
		return corrupt("header", read, "truncated header", err)
	}
	body, stored := head[:len(head)-4], binary.LittleEndian.Uint32(head[len(head)-4:])
	if got := crc32.Checksum(body, castagnoli); got != stored {
		return corrupt("header", read, fmt.Sprintf("header checksum mismatch (stored %#08x, computed %#08x)", stored, got), nil)
	}
	if string(head[:4]) != shardMagic {
		return corrupt("header", read, fmt.Sprintf("bad magic %q", head[:4]), nil)
	}
	if v := head[4]; v != shardVersion {
		return corrupt("header", read, fmt.Sprintf("unsupported sharded snapshot version %d (want %d)", v, shardVersion), nil)
	}
	shardCount := binary.LittleEndian.Uint32(head[5:9])
	seed := binary.LittleEndian.Uint64(head[9:17])
	kind := head[17]
	if shardCount == 0 || shardCount > MaxShards || shardCount&(shardCount-1) != 0 {
		return corrupt("header", read, fmt.Sprintf("invalid shard count %d", shardCount), nil)
	}
	if kind != innerSingle && kind != innerBlocked {
		return corrupt("header", read, fmt.Sprintf("unknown inner table kind %d", kind), nil)
	}

	fileCRC := crc32.Checksum(head, castagnoli)
	var frameErr error
	s, err := New(int(shardCount), seed, func(i int) (Inner, error) {
		var lenBuf [8]byte
		n, err := io.ReadFull(r, lenBuf[:])
		read += int64(n)
		if err != nil {
			return nil, &core.CorruptError{Kind: "sharded", Section: "frame", Offset: read,
				Reason: fmt.Sprintf("truncated length of shard %d", i), Err: err}
		}
		fileCRC = crc32.Update(fileCRC, castagnoli, lenBuf[:])
		frameLen := binary.LittleEndian.Uint64(lenBuf[:])
		if frameLen > maxShardFrame {
			return nil, &core.CorruptError{Kind: "sharded", Section: "frame", Offset: read,
				Reason: fmt.Sprintf("shard %d frame length %d exceeds limit", i, frameLen)}
		}
		frame, got, err := readFrame(r, frameLen)
		read += got
		if err != nil {
			return nil, &core.CorruptError{Kind: "sharded", Section: "frame", Offset: read,
				Reason: fmt.Sprintf("truncated frame of shard %d", i), Err: err}
		}
		fileCRC = crc32.Update(fileCRC, castagnoli, frame)
		tab, err := loadInner(kind, frame)
		if err != nil {
			frameErr = err
			return nil, err
		}
		return tab, nil
	})
	if err != nil {
		// Surface the core loader's CorruptError untouched when there is
		// one (New wraps build errors).
		if frameErr != nil {
			return nil, read, frameErr
		}
		var ce *core.CorruptError
		if errors.As(err, &ce) {
			return nil, read, ce
		}
		return corrupt("frame", read, "rebuilding shards", err)
	}

	var crcBuf [4]byte
	n, err = io.ReadFull(r, crcBuf[:])
	read += int64(n)
	if err != nil {
		return corrupt("trailer", read, "truncated trailer", err)
	}
	if stored := binary.LittleEndian.Uint32(crcBuf[:]); stored != fileCRC {
		return corrupt("trailer", read, fmt.Sprintf("file checksum mismatch (stored %#08x, computed %#08x)", stored, fileCRC), nil)
	}
	return s, read, nil
}

// loadInner parses one shard frame with the loader matching the header's
// inner kind. A frame length inconsistent with its snapshot cannot slip
// through: the length bytes are covered by the file trailer CRC, and any
// mis-framing they cause lands the core loader (or a later frame, or the
// trailer comparison) on bytes whose checksums cannot match.
func loadInner(kind uint8, frame []byte) (Inner, error) {
	if kind == innerBlocked {
		tab, err := core.LoadBlocked(bytes.NewReader(frame))
		if err != nil {
			return nil, err
		}
		return tab, nil
	}
	tab, err := core.Load(bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	return tab, nil
}

// innerKind is the shard tables' core kind byte, which the snapshot header
// records as is.
func (s *Sharded) innerKind() uint8 {
	sh := &s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tab.Kind()
}

func writeCounted(w io.Writer, b []byte) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}

// readFrame reads exactly want bytes, growing the buffer in bounded chunks
// so a corrupted length field fails at EOF after reading what is actually
// there instead of allocating the claimed size up front.
func readFrame(r io.Reader, want uint64) ([]byte, int64, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(want, chunk))
	var got int64
	for uint64(len(buf)) < want {
		n := min(want-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		m, err := io.ReadFull(r, buf[start:])
		got += int64(m)
		if err != nil {
			return buf[:start+m], got, err
		}
	}
	return buf, got, nil
}
