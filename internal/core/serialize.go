package core

import (
	"fmt"
	"io"
	"math"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/bitpack"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/stash"
)

// Serialization: a versioned little-endian binary snapshot of a table.
// The snapshot captures the full logical state — configuration, buckets,
// counters, flags, hints, stash, bookkeeping and the traffic meter — so a
// loaded table behaves identically to the saved one, with one documented
// exception: the random-walk RNG is reseeded deterministically from the
// configuration seed and the item count, so post-load kick sequences are
// reproducible but not a bit-level continuation of the saved process.
//
// Format v3 (crash-safety revision), written and read through
// internal/atomicio's checksummed stream, is divided into five sections — header (magic, version, kind, config), bookkeeping (size,
// copies, deletion state, meter), buckets (keys, values, and for blocked
// tables the packed slot hints), onchip (counter words, flag words, kick
// words), stash — each followed by its own CRC32C, and the whole file ends
// with a CRC32C trailer over every preceding byte (section checksums
// included). Array lengths are implied by the configuration, so a header
// claiming one geometry cannot smuggle differently-sized payloads, and no
// allocation is sized by attacker-controlled fields beyond the bytes
// actually present in the stream. Every rejection — truncation, checksum
// mismatch, out-of-range counter, geometry mismatch, failed invariant —
// is reported as an *atomicio.CorruptError; loaders never panic on
// garbage.

const snapshotVersion = 3

//mcvet:deterministic
func writeConfig(s *atomicio.Writer, cfg Config) {
	s.U8(uint8(cfg.D))
	s.U8(uint8(cfg.Slots))
	s.U32(uint32(cfg.MaxLoop))
	s.U64(cfg.Seed)
	s.U8(uint8(cfg.Policy))
	s.U8(uint8(cfg.Deletion))
	s.U8(boolByte(cfg.StashEnabled))
	s.U32(uint32(cfg.StashMax))
	s.U8(boolByte(cfg.DisablePrescreen))
	s.U8(boolByte(cfg.AssumeUniqueKeys))
	s.U8(boolByte(cfg.DoubleHashing))
	s.U64(uint64(cfg.BucketsPerTable))
	s.U8(boolByte(cfg.AutoGrow.Enabled))
	s.U32(uint32(cfg.AutoGrow.StashThreshold))
	s.U64(math.Float64bits(cfg.AutoGrow.Factor))
	s.U32(uint32(cfg.AutoGrow.MaxAttempts))
	s.U64(math.Float64bits(cfg.AutoGrow.Backoff))
}

func readConfig(s *atomicio.Reader) Config {
	var cfg Config
	cfg.D = int(s.U8())
	cfg.Slots = int(s.U8())
	cfg.MaxLoop = int(s.U32())
	cfg.Seed = s.U64()
	cfg.Policy = kv.KickPolicy(s.U8())
	cfg.Deletion = DeletionMode(s.U8())
	cfg.StashEnabled = s.U8() == 1
	cfg.StashMax = int(s.U32())
	cfg.DisablePrescreen = s.U8() == 1
	cfg.AssumeUniqueKeys = s.U8() == 1
	cfg.DoubleHashing = s.U8() == 1
	n := s.U64()
	if s.Err() == nil && n > math.MaxInt32 {
		s.Failf("table length %d too large", n)
		return cfg
	}
	cfg.BucketsPerTable = int(n)
	cfg.AutoGrow.Enabled = s.U8() == 1
	cfg.AutoGrow.StashThreshold = int(s.U32())
	cfg.AutoGrow.Factor = math.Float64frombits(s.U64())
	cfg.AutoGrow.MaxAttempts = int(s.U32())
	cfg.AutoGrow.Backoff = math.Float64frombits(s.U64())
	return cfg
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

//mcvet:deterministic
func writeStash(s *atomicio.Writer, entries []kv.Entry) {
	s.U64(uint64(len(entries)))
	for _, e := range entries {
		s.U64(e.Key)
		s.U64(e.Value)
	}
}

// readStash reads the stash entries, rejecting any count above maxLen (the
// configured stash limit, or the global array bound for unbounded stashes;
// 0 when the configuration has no stash at all).
func readStash(s *atomicio.Reader, maxLen uint64) []kv.Entry {
	n := s.U64()
	if s.Err() != nil {
		return nil
	}
	if n > maxLen {
		s.Failf("stash length %d exceeds limit %d", n, maxLen)
		return nil
	}
	entries := make([]kv.Entry, 0, min(n, 1<<14))
	for i := uint64(0); i < n; i++ {
		e := kv.Entry{Key: s.U64(), Value: s.U64()}
		if s.Err() != nil {
			return nil
		}
		entries = append(entries, e)
	}
	return entries
}

// maxSnapshotArray bounds any single array in a snapshot; together with the
// chunked reader it keeps garbage input from triggering large allocations.
const maxSnapshotArray = 1 << 32

// snapshotState is the complete logical content of a snapshot, shared by the
// single-slot and blocked writers and loaders.
type snapshotState struct {
	kind            uint8
	cfg             Config
	size            int
	copiesTotal     int
	redundantWrites int64
	deletedAny      bool
	meter           memmodel.Meter
	keys            []uint64
	vals            []uint64
	hints           [][4]int8 // blocked only
	counterWords    []uint64
	flagWords       []uint64
	kickWords       []uint64
	stash           []kv.Entry
}

// geometry derives the array sizes a normalized configuration implies.
// cells is the number of counter cells (buckets times slots); flagBits is
// always the bucket count.
func snapshotGeometry(cfg *Config) (cells, flagBits, counterWords, flagWords, kickWords uint64) {
	buckets := uint64(cfg.D) * uint64(cfg.BucketsPerTable)
	cells = buckets * uint64(cfg.Slots)
	flagBits = buckets
	perWord := 64 / uint64(cfg.counterWidth())
	counterWords = (cells + perWord - 1) / perWord
	flagWords = (flagBits + 63) / 64
	if cfg.Policy == kv.MinCounter {
		kickWords = (buckets + 12 - 1) / 12 // 5-bit counters, 12 per word
	}
	return
}

// writeSnapshot emits the v3 checksummed stream. The byte stream must be a
// pure function of the logical state: snapshots are diffed and checksummed
// across hosts, so nothing time-, rand-, or map-order-dependent may leak in.
//
//mcvet:deterministic
func writeSnapshot(w io.Writer, st *snapshotState) (int64, error) {
	s := atomicio.NewWriter(w)

	s.BeginSection()
	s.Bytes([]byte(atomicio.MagicTable))
	s.U8(snapshotVersion)
	s.U8(st.kind)
	writeConfig(s, st.cfg)
	s.EndSection()

	s.BeginSection()
	s.U64(uint64(st.size))
	s.U64(uint64(st.copiesTotal))
	s.U64(uint64(st.redundantWrites))
	s.U8(boolByte(st.deletedAny))
	s.U64(uint64(st.meter.OffChipReads))
	s.U64(uint64(st.meter.OffChipWrites))
	s.U64(uint64(st.meter.OnChipReads))
	s.U64(uint64(st.meter.OnChipWrites))
	s.EndSection()

	s.BeginSection()
	s.U64s(st.keys)
	s.U64s(st.vals)
	if st.kind == kindBlocked {
		s.U64(uint64(len(st.hints)))
		for _, h := range st.hints {
			s.U32(uint32(uint8(h[0])) | uint32(uint8(h[1]))<<8 |
				uint32(uint8(h[2]))<<16 | uint32(uint8(h[3]))<<24)
		}
	}
	s.EndSection()

	s.BeginSection()
	s.U64s(st.counterWords)
	s.U64s(st.flagWords)
	s.U64s(st.kickWords)
	s.EndSection()

	s.BeginSection()
	writeStash(s, st.stash)
	s.EndSection()

	return s.Finish()
}

// readSnapshot parses and fully validates a v3 stream of the wanted kind.
// Everything is checked against the configuration-implied geometry before
// any geometry-sized allocation happens, and every section must pass its
// checksum. A snapshot of the other kind whose header checksum passes is
// declined with atomicio.ErrOtherKind, not reported as corrupt.
func readSnapshot(s *atomicio.Reader, wantKind uint8) (*snapshotState, error) {
	kindName, blocked := kindNames[wantKind], wantKind == kindBlocked
	st := &snapshotState{kind: wantKind}

	s.BeginSection("header")
	s.Magic(kindName, atomicio.MagicTable)
	if v := s.U8(); s.Err() == nil && v != snapshotVersion {
		s.Failf("unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	kind := s.U8()
	cfg := readConfig(s)
	s.EndSection()
	switch {
	case s.Err() != nil || kind == wantKind:
	case int(kind) < len(kindNames):
		return nil, fmt.Errorf("%w: a %s snapshot, not a %s one", atomicio.ErrOtherKind, kindNames[kind], kindName)
	default:
		s.Failf("unknown snapshot kind %d", kind)
	}
	if s.Err() != nil {
		return nil, s.Err()
	}
	if err := cfg.normalize(blocked); err != nil {
		s.Fail("invalid configuration", err)
		return nil, s.Err()
	}
	st.cfg = cfg
	cells, _, counterWords, flagWords, kickWords := snapshotGeometry(&cfg)

	s.BeginSection("bookkeeping")
	size := s.U64()
	copiesTotal := s.U64()
	redundantWrites := s.U64()
	st.deletedAny = s.U8() == 1
	offR, offW, onR, onW := s.U64(), s.U64(), s.U64(), s.U64()
	s.EndSection()
	if s.Err() == nil && (size > cells || copiesTotal > cells || size > copiesTotal) {
		s.Failf("size %d / copies %d out of range for %d cells", size, copiesTotal, cells)
	}
	for _, v := range []uint64{redundantWrites, offR, offW, onR, onW} {
		if s.Err() == nil && v > math.MaxInt64 {
			s.Failf("negative lifetime counter %#x", v)
		}
	}
	if s.Err() != nil {
		return nil, s.Err()
	}
	st.size = int(size)
	st.copiesTotal = int(copiesTotal)
	st.redundantWrites = int64(redundantWrites)
	st.meter = memmodel.Meter{OffChipReads: int64(offR), OffChipWrites: int64(offW),
		OnChipReads: int64(onR), OnChipWrites: int64(onW)}

	s.BeginSection("buckets")
	st.keys = s.U64sExact(cells, "bucket keys")
	st.vals = s.U64sExact(cells, "bucket values")
	if blocked {
		nHints := s.U64()
		if s.Err() == nil && nHints != cells {
			s.Failf("hint count %d does not match slot count %d", nHints, cells)
		}
		if s.Err() == nil {
			st.hints = make([][4]int8, 0, min(nHints, 1<<14))
			for i := uint64(0); i < nHints && s.Err() == nil; i++ {
				packed := s.U32()
				h := [4]int8{
					int8(uint8(packed)), int8(uint8(packed >> 8)),
					int8(uint8(packed >> 16)), int8(uint8(packed >> 24)),
				}
				for _, hv := range h {
					if hv != noSlot && (hv < 0 || int(hv) >= cfg.Slots) {
						s.Failf("slot hint %d out of range for %d slots", hv, cfg.Slots)
					}
				}
				st.hints = append(st.hints, h)
			}
		}
	}
	s.EndSection()

	s.BeginSection("onchip")
	st.counterWords = s.U64sExact(counterWords, "counter words")
	st.flagWords = s.U64sExact(flagWords, "flag words")
	st.kickWords = s.U64sExact(kickWords, "kick-counter words")
	s.EndSection()

	s.BeginSection("stash")
	maxStash := uint64(0)
	if cfg.StashEnabled {
		maxStash = maxSnapshotArray
		if cfg.StashMax > 0 {
			maxStash = uint64(cfg.StashMax)
		}
	}
	st.stash = readStash(s, maxStash)
	s.EndSection()

	s.Trailer()
	if s.Err() != nil {
		return nil, s.Err()
	}
	return st, nil
}

// splitCells materializes the snapshot's split key/value arrays from the
// interleaved cells: the snapshot byte format predates the interleaving and
// must stay byte-identical across it.
func splitCells(cells []kv.Entry) (keys, vals []uint64) {
	keys = make([]uint64, len(cells))
	vals = make([]uint64, len(cells))
	for i, c := range cells {
		keys[i], vals[i] = c.Key, c.Value
	}
	return keys, vals
}

// snapshot captures the table's complete logical state.
//
//mcvet:deterministic
func (s *tableState) snapshot() *snapshotState {
	keys, vals := splitCells(s.cells)
	st := &snapshotState{
		kind:            s.kind,
		cfg:             s.cfg,
		size:            s.size,
		copiesTotal:     s.copiesTotal,
		redundantWrites: s.redundantWrites,
		deletedAny:      s.deletedAny,
		meter:           s.meter.Snapshot(),
		keys:            keys,
		vals:            vals,
		counterWords:    s.counters.Words(),
		flagWords:       s.flags.Words(),
		kickWords:       kickWordsOf(s.kickCounts),
		stash:           stashEntriesOf(s.overflow),
	}
	if hints := s.algo.hintsRef(); hints != nil {
		st.hints = *hints
	}
	return st
}

// WriteTo serializes the table. It implements io.WriterTo.
//
//mcvet:deterministic
func (s *tableState) WriteTo(w io.Writer) (int64, error) {
	return writeSnapshot(w, s.snapshot())
}

// SaveFile writes a crash-safe snapshot of the table to path: temp file in
// the same directory, fsync, atomic rename. A crash mid-save leaves the
// previous file (or no file) intact, never a torn snapshot.
func (s *tableState) SaveFile(path string) error { return atomicio.WriteFile(path, s.WriteTo) }

// Load deserializes a single-slot table previously written with WriteTo.
// Any truncated, bit-flipped, or internally inconsistent input is rejected
// with an *atomicio.CorruptError; Load never panics on garbage and never
// returns a table that fails CheckInvariants.
func Load(r io.Reader) (*Table, error) { return Read(atomicio.NewReader(r)) }

// LoadBlocked deserializes a blocked table previously written with WriteTo,
// with the same rejection guarantees as Load.
func LoadBlocked(r io.Reader) (*BlockedTable, error) { return ReadBlocked(atomicio.NewReader(r)) }

// LoadFile loads a single-slot table from a snapshot file written by
// SaveFile, rejecting bytes after the trailer as well: a whole file either
// is a snapshot or is not.
func LoadFile(path string) (*Table, error) { return atomicio.LoadFile(path, Read) }

// LoadBlockedFile is LoadFile for a blocked table.
func LoadBlockedFile(path string) (*BlockedTable, error) {
	return atomicio.LoadFile(path, ReadBlocked)
}

// Read reads a single-slot table snapshot from s with Load's guarantees.
// The sharded container reads each shard's snapshot in place through it.
func Read(s *atomicio.Reader) (*Table, error) { return loadSnapshot(s, kindSingle, New) }

// ReadBlocked is Read for a blocked table snapshot.
func ReadBlocked(s *atomicio.Reader) (*BlockedTable, error) {
	return loadSnapshot(s, kindBlocked, NewBlocked)
}

// restorer is a freshly built table that a validated snapshot can be
// restored into; both kinds implement it through their shared state.
type restorer interface {
	restore(st *snapshotState, offset int64) error
}

// loadSnapshot reads one snapshot of the given kind and restores it into the
// table build makes from the snapshot's configuration.
func loadSnapshot[T restorer](s *atomicio.Reader, kind uint8, build func(Config) (T, error)) (T, error) {
	var none T
	st, err := readSnapshot(s, kind)
	if err != nil {
		return none, err
	}
	t, err := build(st.cfg)
	if err != nil {
		return none, &atomicio.CorruptError{Kind: kindNames[kind], Section: "header", Offset: s.Offset(),
			Reason: "configuration rejected", Err: err}
	}
	if err := t.restore(st, s.Offset()); err != nil {
		return none, err
	}
	return t, nil
}

// restore installs a validated snapshot into a freshly built table and
// re-checks every invariant.
func (s *tableState) restore(st *snapshotState, n int64) error {
	kind := kindNames[s.kind]
	s.size = st.size
	s.copiesTotal = st.copiesTotal
	s.redundantWrites = st.redundantWrites
	s.deletedAny = st.deletedAny
	s.meter = st.meter
	for i := range s.cells {
		s.cells[i] = kv.Entry{Key: st.keys[i], Value: st.vals[i]}
	}
	if hints := s.algo.hintsRef(); hints != nil {
		copy(*hints, st.hints)
	}
	if err := restoreOnChip(st, s.counters, s.flags, s.kickCounts, uint64(s.cfg.D), s.tombstoneVal); err != nil {
		return &atomicio.CorruptError{Kind: kind, Section: "onchip", Offset: n,
			Reason: "on-chip state invalid", Err: err}
	}
	if s.overflow != nil {
		if err := s.overflow.Restore(st.stash); err != nil {
			return &atomicio.CorruptError{Kind: kind, Section: "stash", Offset: n,
				Reason: "stash rejected", Err: err}
		}
	}
	s.reseedRNG()
	if err := s.CheckInvariants(); err != nil {
		return &atomicio.CorruptError{Kind: kind, Section: "consistency", Offset: n,
			Reason: "snapshot inconsistent", Err: err}
	}
	return nil
}

// restoreOnChip loads the packed counter/flag/kick words into a freshly
// allocated table and bounds-checks every counter value against d (plus the
// tombstone mark when enabled) — a snapshot cannot smuggle counter values
// the insertion and lookup logic would never produce.
func restoreOnChip(st *snapshotState, counters interface {
	LoadWords([]uint64) error
	Len() int
	Get(int) uint64
}, flags interface{ LoadWords([]uint64) error }, kick interface{ LoadWords([]uint64) error },
	d, tombstoneVal uint64) error {
	if err := counters.LoadWords(st.counterWords); err != nil {
		return err
	}
	for i := 0; i < counters.Len(); i++ {
		if v := counters.Get(i); v > d && (tombstoneVal == 0 || v != tombstoneVal) {
			return fmt.Errorf("counter %d holds %d, above d=%d", i, v, d)
		}
	}
	if err := flags.LoadWords(st.flagWords); err != nil {
		return err
	}
	if kick != nil && len(st.kickWords) > 0 {
		return kick.LoadWords(st.kickWords)
	}
	return nil
}

func kickWordsOf(c *bitpack.Counters) []uint64 {
	if c == nil {
		return nil
	}
	return c.Words()
}

func stashEntriesOf(s *stash.Stash) []kv.Entry {
	if s == nil {
		return nil
	}
	return s.Entries()
}
