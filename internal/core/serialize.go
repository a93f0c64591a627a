package core

import (
	"fmt"
	"io"
	"math"

	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
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

// readStash reads the stash entries, rejecting any count above maxLen (the
// configured stash limit, or the global array bound for unbounded stashes;
// 0 when the configuration has no stash at all).
func readStash(s *atomicio.Reader, maxLen uint64) []kv.Entry {
	n := s.U64()
	if s.Err() == nil && n > maxLen {
		s.Failf("stash length %d exceeds limit %d", n, maxLen)
	}
	entries := make([]kv.Entry, 0, s.Alloc(n, 16))
	for i := uint64(0); i < n && s.Err() == nil; i++ {
		entries = append(entries, kv.Entry{Key: s.U64(), Value: s.U64()})
	}
	return entries
}

// maxSnapshotArray bounds any single array in a snapshot; together with the
// stream's allocation rule it keeps garbage input from triggering large
// allocations.
const maxSnapshotArray = 1 << 32

// tableArrays are a table's off-chip and on-chip arrays: an empty table's,
// or a snapshot's, read in place for the loaded table to adopt.
type tableArrays struct {
	cells        []kv.Entry
	hints        [][4]int8 // blocked only
	counterWords []uint64
	flagWords    []uint64
	kickWords    []uint64 // MinCounter only
}

// emptyArrays allocates the arrays of an empty table of cfg in the order
// New has always allocated them, on-chip words then cells, so a new table's
// memory layout stays as it was. The cells are advised onto huge pages
// (DESIGN.md §6) before the first insert writes them; a blocked table's
// hints, a quarter of their size, are not, as advising them gained nothing
// measurable.
func emptyArrays(cfg *Config, blocked bool) tableArrays {
	cells, _, counterWords, flagWords, kickWords := snapshotGeometry(cfg)
	a := tableArrays{
		counterWords: make([]uint64, counterWords),
		flagWords:    make([]uint64, flagWords),
		kickWords:    make([]uint64, kickWords),
	}
	a.cells = make([]kv.Entry, cells)
	adviseHugePages(a.cells)
	if blocked {
		a.hints = make([][4]int8, cells)
		for i := range a.hints {
			a.hints[i] = [4]int8{noSlot, noSlot, noSlot, noSlot}
		}
	}
	return a
}

// snapshotState is the content of a snapshot that passed every check of the
// stream: the configuration, the bookkeeping, and the arrays the loaded
// table adopts.
type snapshotState struct {
	tableArrays
	cfg             Config
	size            int
	copiesTotal     int
	redundantWrites int64
	deletedAny      bool
	meter           memmodel.Meter
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

// configLen is the length of writeConfig's fields.
const configLen = 1 + 1 + 4 + 8 + 1 + 1 + 1 + 4 + 1 + 1 + 1 + 8 + 1 + 4 + 8 + 4 + 8

// SnapshotLen returns the length of the snapshot WriteSnapshot writes, a
// function of the configuration, the kind and the stash length: the sharded
// container announces each shard's frame with it.
func (s *tableState) SnapshotLen() uint64 {
	cells, _, counterWords, flagWords, kickWords := snapshotGeometry(&s.cfg)
	n := uint64(4+1+1+configLen+4) + // header section
		3*8 + 1 + 4*8 + 4 + // bookkeeping section
		8 + 8*cells + 8 + 8*cells + 4 + // buckets section: keys, values
		8 + 8*counterWords + 8 + 8*flagWords + 8 + 8*kickWords + 4 + // onchip section
		8 + 16*uint64(s.StashLen()) + 4 + // stash section
		4 // trailer
	if s.kind == kindBlocked {
		n += 8 + 4*cells // the buckets section's slot hints
	}
	return n
}

// WriteTo serializes the table. It implements io.WriterTo.
//
//mcvet:deterministic
func (s *tableState) WriteTo(w io.Writer) (int64, error) {
	return s.WriteSnapshot(atomicio.NewWriter(w))
}

// WriteSnapshot writes the v3 snapshot to out, a whole file's stream or a
// frame's, straight from the table's arrays, and finishes it. The byte
// stream must be a pure function of the logical state: snapshots are diffed
// and checksummed across hosts, so nothing time-, rand-, or
// map-order-dependent may leak in.
//
//mcvet:deterministic
func (s *tableState) WriteSnapshot(out *atomicio.Writer) (int64, error) {
	out.BeginSection()
	out.Bytes([]byte(atomicio.MagicTable))
	out.U8(snapshotVersion)
	out.U8(s.kind)
	writeConfig(out, s.cfg)
	out.EndSection()

	m := s.meter.Snapshot()
	out.BeginSection()
	out.U64(uint64(s.size))
	out.U64(uint64(s.copiesTotal))
	out.U64(uint64(s.redundantWrites))
	out.U8(boolByte(s.deletedAny))
	out.U64(uint64(m.OffChipReads))
	out.U64(uint64(m.OffChipWrites))
	out.U64(uint64(m.OnChipReads))
	out.U64(uint64(m.OnChipWrites))
	out.EndSection()

	// The byte format predates the interleaved cells: keys, then values.
	out.BeginSection()
	out.U64(uint64(len(s.cells)))
	for _, c := range s.cells {
		out.U64(c.Key)
	}
	out.U64(uint64(len(s.cells)))
	for _, c := range s.cells {
		out.U64(c.Value)
	}
	if hints := s.algo.hintsRef(); hints != nil {
		out.U64(uint64(len(*hints)))
		for _, h := range *hints {
			out.U32(uint32(uint8(h[0])) | uint32(uint8(h[1]))<<8 |
				uint32(uint8(h[2]))<<16 | uint32(uint8(h[3]))<<24)
		}
	}
	out.EndSection()

	out.BeginSection()
	out.U64s(s.counters.Words())
	out.U64s(s.flags.Words())
	var kickWords []uint64
	if s.kickCounts != nil {
		kickWords = s.kickCounts.Words()
	}
	out.U64s(kickWords)
	out.EndSection()

	out.BeginSection()
	var stashed []kv.Entry
	if s.overflow != nil {
		stashed = s.overflow.Entries()
	}
	out.U64(uint64(len(stashed)))
	for _, e := range stashed {
		out.U64(e.Key)
		out.U64(e.Value)
	}
	out.EndSection()

	return out.Finish()
}

// readSnapshot parses and fully validates a v3 stream of the wanted kind,
// reading each array once, into the array the loaded table adopts.
// Everything is checked against the configuration-implied geometry before
// any geometry-sized allocation happens, and every section must pass its
// checksum. A snapshot of the other kind whose header checksum passes is
// declined with atomicio.ErrOtherKind, not reported as corrupt.
func readSnapshot(s *atomicio.Reader, wantKind uint8) (*snapshotState, error) {
	kindName, blocked := kindNames[wantKind], wantKind == kindBlocked
	st := &snapshotState{}

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

	// A file of known size allocates the cells whole, and their huge-page
	// advice comes before the first cell is read. A stream of unknown
	// length starts with a buffer's worth, too small to advise, and grows.
	s.BeginSection("buckets")
	st.cells = make([]kv.Entry, 0, s.Len(cells, 8, "bucket keys"))
	adviseHugePages(st.cells)
	for i := uint64(0); i < cells && s.Err() == nil; i++ {
		st.cells = append(st.cells, kv.Entry{Key: s.U64()})
	}
	s.Len(cells, 8, "bucket values")
	for i := range st.cells {
		st.cells[i].Value = s.U64()
	}
	if blocked {
		st.hints = make([][4]int8, 0, s.Len(cells, 4, "slot hints"))
		for i := uint64(0); i < cells && s.Err() == nil; i++ {
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
func Read(s *atomicio.Reader) (*Table, error) {
	t := &Table{}
	if err := t.load(s, kindSingle, t); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadBlocked is Read for a blocked table snapshot.
func ReadBlocked(s *atomicio.Reader) (*BlockedTable, error) {
	t := &BlockedTable{}
	if err := t.load(s, kindBlocked, t); err != nil {
		return nil, err
	}
	return t, nil
}

// load reads a snapshot of the given kind into s, a zero table whose probe
// algorithm is algo. The table adopts the snapshot's arrays as read, and
// every invariant is checked again.
func (s *tableState) load(in *atomicio.Reader, kind uint8, algo algorithm) error {
	st, err := readSnapshot(in, kind)
	if err != nil {
		return err
	}
	name, n := kindNames[kind], in.Offset()
	s.init(st.cfg, kind, algo)
	if err := s.install(st.cfg, &st.tableArrays); err != nil {
		return &atomicio.CorruptError{Kind: name, Section: "header", Offset: n,
			Reason: "configuration rejected", Err: err}
	}
	s.size = st.size
	s.copiesTotal = st.copiesTotal
	s.redundantWrites = st.redundantWrites
	s.deletedAny = st.deletedAny
	s.meter = st.meter
	d := uint64(s.cfg.D)
	for i := 0; i < s.counters.Len(); i++ {
		if v := s.counters.Get(i); v > d && (s.tombstoneVal == 0 || v != s.tombstoneVal) {
			return &atomicio.CorruptError{Kind: name, Section: "onchip", Offset: n,
				Reason: "on-chip state invalid", Err: fmt.Errorf("counter %d holds %d, above d=%d", i, v, d)}
		}
	}
	if s.overflow != nil {
		if err := s.overflow.Restore(st.stash); err != nil {
			return &atomicio.CorruptError{Kind: name, Section: "stash", Offset: n,
				Reason: "stash rejected", Err: err}
		}
	}
	s.reseedRNG()
	if err := s.CheckInvariants(); err != nil {
		return &atomicio.CorruptError{Kind: name, Section: "consistency", Offset: n,
			Reason: "snapshot inconsistent", Err: err}
	}
	return nil
}
