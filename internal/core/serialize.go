package core

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"

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
// Format v3 (crash-safety revision): the stream is divided into five
// sections — header (magic, version, kind, config), bookkeeping (size,
// copies, deletion state, meter), buckets (keys, values, and for blocked
// tables the packed slot hints), onchip (counter words, flag words, kick
// words), stash — each followed by its own CRC32C, and the whole file ends
// with a CRC32C trailer over every preceding byte (section checksums
// included). Array lengths are implied by the configuration, so a header
// claiming one geometry cannot smuggle differently-sized payloads, and no
// allocation is sized by attacker-controlled fields beyond the bytes
// actually present in the stream. Every rejection — truncation, checksum
// mismatch, out-of-range counter, geometry mismatch, failed invariant —
// is reported as a *CorruptError; loaders never panic on garbage.

const (
	snapshotMagic   = "MCCK"
	snapshotVersion = 3
)

// castagnoli is the CRC32C polynomial table shared by writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type snapWriter struct {
	w       *bufio.Writer
	n       int64
	err     error
	fileCRC uint32
	sectCRC uint32
}

func (s *snapWriter) bytes(b []byte) {
	if s.err != nil {
		return
	}
	n, err := s.w.Write(b)
	s.n += int64(n)
	s.err = err
	s.fileCRC = crc32.Update(s.fileCRC, castagnoli, b[:n])
	s.sectCRC = crc32.Update(s.sectCRC, castagnoli, b[:n])
}

func (s *snapWriter) u8(v uint8) { s.bytes([]byte{v}) }

func (s *snapWriter) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	s.bytes(buf[:])
}

func (s *snapWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.bytes(buf[:])
}

func (s *snapWriter) u64s(vals []uint64) {
	s.u64(uint64(len(vals)))
	for _, v := range vals {
		s.u64(v)
	}
}

// beginSection starts a new checksummed region.
func (s *snapWriter) beginSection() { s.sectCRC = 0 }

// endSection appends the CRC32C of the bytes written since beginSection.
// The checksum bytes themselves are covered by the file trailer only.
func (s *snapWriter) endSection() {
	crc := s.sectCRC
	s.u32(crc)
}

// trailer appends the whole-file CRC32C over every byte written so far.
func (s *snapWriter) trailer() {
	crc := s.fileCRC
	s.u32(crc)
}

type snapReader struct {
	r       *bufio.Reader
	n       int64
	err     error
	fileCRC uint32
	sectCRC uint32
	kind    string // "table" or "blocked", for error reports
	section string // current section name, for error reports
}

// fail records the first error as a *CorruptError tagged with the current
// section and offset.
func (s *snapReader) fail(reason string, err error) {
	if s.err == nil {
		s.err = &CorruptError{Kind: s.kind, Section: s.section, Offset: s.n,
			Reason: reason, Err: err}
	}
}

func (s *snapReader) failf(format string, args ...any) {
	if s.err == nil {
		s.err = corruptf(s.kind, s.section, s.n, format, args...)
	}
}

func (s *snapReader) bytes(b []byte) {
	if s.err != nil {
		return
	}
	n, err := io.ReadFull(s.r, b)
	s.n += int64(n)
	s.fileCRC = crc32.Update(s.fileCRC, castagnoli, b[:n])
	s.sectCRC = crc32.Update(s.sectCRC, castagnoli, b[:n])
	if err != nil {
		s.fail("truncated input", err)
	}
}

func (s *snapReader) u8() uint8 {
	var buf [1]byte
	s.bytes(buf[:])
	return buf[0]
}

func (s *snapReader) u32() uint32 {
	var buf [4]byte
	s.bytes(buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

func (s *snapReader) u64() uint64 {
	var buf [8]byte
	s.bytes(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// u64sExact reads a length-prefixed word array whose length must equal want
// (implied by the configuration), in bounded chunks: memory grows with bytes
// actually present in the stream, so a corrupt header declaring a huge
// length fails at the first missing chunk instead of allocating it all up
// front.
func (s *snapReader) u64sExact(want uint64, what string) []uint64 {
	n := s.u64()
	if s.err != nil {
		return nil
	}
	if n != want {
		s.failf("%s length %d does not match geometry %d", what, n, want)
		return nil
	}
	const chunk = 1 << 14
	out := make([]uint64, 0, min(n, chunk))
	var buf [8 * chunk]byte
	for remaining := n; remaining > 0; {
		c := min(remaining, chunk)
		s.bytes(buf[:8*c])
		if s.err != nil {
			return nil
		}
		for i := uint64(0); i < c; i++ {
			out = append(out, binary.LittleEndian.Uint64(buf[8*i:]))
		}
		remaining -= c
	}
	return out
}

// beginSection starts verifying a new checksummed region.
func (s *snapReader) beginSection(name string) {
	s.section = name
	s.sectCRC = 0
}

// endSection reads the stored section CRC32C and compares it with the bytes
// consumed since beginSection.
func (s *snapReader) endSection() {
	if s.err != nil {
		return
	}
	want := s.sectCRC
	got := s.u32()
	if s.err == nil && got != want {
		s.failf("section checksum mismatch (stored %#08x, computed %#08x)", got, want)
	}
}

// trailer reads the whole-file CRC32C and compares it with every byte
// consumed before it.
func (s *snapReader) trailer() {
	s.section = "trailer"
	if s.err != nil {
		return
	}
	want := s.fileCRC
	got := s.u32()
	if s.err == nil && got != want {
		s.failf("file checksum mismatch (stored %#08x, computed %#08x)", got, want)
	}
}

//mcvet:deterministic
func writeConfig(s *snapWriter, cfg Config) {
	s.u8(uint8(cfg.D))
	s.u8(uint8(cfg.Slots))
	s.u32(uint32(cfg.MaxLoop))
	s.u64(cfg.Seed)
	s.u8(uint8(cfg.Policy))
	s.u8(uint8(cfg.Deletion))
	s.u8(boolByte(cfg.StashEnabled))
	s.u32(uint32(cfg.StashMax))
	s.u8(boolByte(cfg.DisablePrescreen))
	s.u8(boolByte(cfg.AssumeUniqueKeys))
	s.u8(boolByte(cfg.DoubleHashing))
	s.u64(uint64(cfg.BucketsPerTable))
	s.u8(boolByte(cfg.AutoGrow.Enabled))
	s.u32(uint32(cfg.AutoGrow.StashThreshold))
	s.u64(math.Float64bits(cfg.AutoGrow.Factor))
	s.u32(uint32(cfg.AutoGrow.MaxAttempts))
	s.u64(math.Float64bits(cfg.AutoGrow.Backoff))
}

func readConfig(s *snapReader) Config {
	var cfg Config
	cfg.D = int(s.u8())
	cfg.Slots = int(s.u8())
	cfg.MaxLoop = int(s.u32())
	cfg.Seed = s.u64()
	cfg.Policy = kv.KickPolicy(s.u8())
	cfg.Deletion = DeletionMode(s.u8())
	cfg.StashEnabled = s.u8() == 1
	cfg.StashMax = int(s.u32())
	cfg.DisablePrescreen = s.u8() == 1
	cfg.AssumeUniqueKeys = s.u8() == 1
	cfg.DoubleHashing = s.u8() == 1
	n := s.u64()
	if s.err == nil && n > math.MaxInt32 {
		s.failf("table length %d too large", n)
		return cfg
	}
	cfg.BucketsPerTable = int(n)
	cfg.AutoGrow.Enabled = s.u8() == 1
	cfg.AutoGrow.StashThreshold = int(s.u32())
	cfg.AutoGrow.Factor = math.Float64frombits(s.u64())
	cfg.AutoGrow.MaxAttempts = int(s.u32())
	cfg.AutoGrow.Backoff = math.Float64frombits(s.u64())
	return cfg
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

//mcvet:deterministic
func writeStash(s *snapWriter, entries []kv.Entry) {
	s.u64(uint64(len(entries)))
	for _, e := range entries {
		s.u64(e.Key)
		s.u64(e.Value)
	}
}

// readStash reads the stash entries, rejecting any count above maxLen (the
// configured stash limit, or the global array bound for unbounded stashes;
// 0 when the configuration has no stash at all).
func readStash(s *snapReader, maxLen uint64) []kv.Entry {
	n := s.u64()
	if s.err != nil {
		return nil
	}
	if n > maxLen {
		s.failf("stash length %d exceeds limit %d", n, maxLen)
		return nil
	}
	entries := make([]kv.Entry, 0, min(n, 1<<14))
	for i := uint64(0); i < n; i++ {
		e := kv.Entry{Key: s.u64(), Value: s.u64()}
		if s.err != nil {
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
	s := &snapWriter{w: bufio.NewWriter(w)}

	s.beginSection()
	s.bytes([]byte(snapshotMagic))
	s.u8(snapshotVersion)
	s.u8(st.kind)
	writeConfig(s, st.cfg)
	s.endSection()

	s.beginSection()
	s.u64(uint64(st.size))
	s.u64(uint64(st.copiesTotal))
	s.u64(uint64(st.redundantWrites))
	s.u8(boolByte(st.deletedAny))
	s.u64(uint64(st.meter.OffChipReads))
	s.u64(uint64(st.meter.OffChipWrites))
	s.u64(uint64(st.meter.OnChipReads))
	s.u64(uint64(st.meter.OnChipWrites))
	s.endSection()

	s.beginSection()
	s.u64s(st.keys)
	s.u64s(st.vals)
	if st.kind == kindBlocked {
		s.u64(uint64(len(st.hints)))
		for _, h := range st.hints {
			s.u32(uint32(uint8(h[0])) | uint32(uint8(h[1]))<<8 |
				uint32(uint8(h[2]))<<16 | uint32(uint8(h[3]))<<24)
		}
	}
	s.endSection()

	s.beginSection()
	s.u64s(st.counterWords)
	s.u64s(st.flagWords)
	s.u64s(st.kickWords)
	s.endSection()

	s.beginSection()
	writeStash(s, st.stash)
	s.endSection()

	s.trailer()
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.n, s.err
}

// readSnapshot parses and fully validates a v3 stream of the wanted kind.
// Everything is checked against the configuration-implied geometry before
// any geometry-sized allocation happens, and every section must pass its
// checksum. It returns the bytes consumed so file loaders can reject
// trailing garbage.
func readSnapshot(r io.Reader, wantKind uint8) (*snapshotState, int64, error) {
	kindName, blocked := kindNames[wantKind], wantKind == kindBlocked
	s := &snapReader{r: bufio.NewReader(r), kind: kindName}
	st := &snapshotState{kind: wantKind}

	s.beginSection("header")
	var magic [4]byte
	s.bytes(magic[:])
	if s.err == nil && string(magic[:]) != snapshotMagic {
		s.failf("bad magic %q", magic)
	}
	if v := s.u8(); s.err == nil && v != snapshotVersion {
		s.failf("unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	if k := s.u8(); s.err == nil && k != wantKind {
		other := "Load"
		if wantKind == kindSingle {
			other = "LoadBlocked"
		}
		s.failf("snapshot kind %d is not a %s snapshot; use %s", k, kindName, other)
	}
	cfg := readConfig(s)
	s.endSection()
	if s.err != nil {
		return nil, s.n, s.err
	}
	if err := cfg.normalize(blocked); err != nil {
		return nil, s.n, &CorruptError{Kind: kindName, Section: "header", Offset: s.n,
			Reason: "invalid configuration", Err: err}
	}
	st.cfg = cfg
	cells, _, counterWords, flagWords, kickWords := snapshotGeometry(&cfg)

	s.beginSection("bookkeeping")
	size := s.u64()
	copiesTotal := s.u64()
	redundantWrites := s.u64()
	st.deletedAny = s.u8() == 1
	offR, offW, onR, onW := s.u64(), s.u64(), s.u64(), s.u64()
	s.endSection()
	if s.err != nil {
		return nil, s.n, s.err
	}
	if size > cells || copiesTotal > cells || size > copiesTotal {
		return nil, s.n, corruptf(kindName, "bookkeeping", s.n,
			"size %d / copies %d out of range for %d cells", size, copiesTotal, cells)
	}
	for _, v := range []uint64{redundantWrites, offR, offW, onR, onW} {
		if v > math.MaxInt64 {
			return nil, s.n, corruptf(kindName, "bookkeeping", s.n, "negative lifetime counter %#x", v)
		}
	}
	st.size = int(size)
	st.copiesTotal = int(copiesTotal)
	st.redundantWrites = int64(redundantWrites)
	st.meter = memmodel.Meter{OffChipReads: int64(offR), OffChipWrites: int64(offW),
		OnChipReads: int64(onR), OnChipWrites: int64(onW)}

	s.beginSection("buckets")
	st.keys = s.u64sExact(cells, "bucket keys")
	st.vals = s.u64sExact(cells, "bucket values")
	if blocked {
		nHints := s.u64()
		if s.err == nil && nHints != cells {
			s.failf("hint count %d does not match slot count %d", nHints, cells)
		}
		if s.err == nil {
			st.hints = make([][4]int8, 0, min(nHints, 1<<14))
			for i := uint64(0); i < nHints && s.err == nil; i++ {
				packed := s.u32()
				h := [4]int8{
					int8(uint8(packed)), int8(uint8(packed >> 8)),
					int8(uint8(packed >> 16)), int8(uint8(packed >> 24)),
				}
				for _, hv := range h {
					if hv != noSlot && (hv < 0 || int(hv) >= cfg.Slots) {
						s.failf("slot hint %d out of range for %d slots", hv, cfg.Slots)
					}
				}
				st.hints = append(st.hints, h)
			}
		}
	}
	s.endSection()

	s.beginSection("onchip")
	st.counterWords = s.u64sExact(counterWords, "counter words")
	st.flagWords = s.u64sExact(flagWords, "flag words")
	st.kickWords = s.u64sExact(kickWords, "kick-counter words")
	s.endSection()

	s.beginSection("stash")
	maxStash := uint64(0)
	if cfg.StashEnabled {
		maxStash = maxSnapshotArray
		if cfg.StashMax > 0 {
			maxStash = uint64(cfg.StashMax)
		}
	}
	st.stash = readStash(s, maxStash)
	s.endSection()

	s.trailer()
	if s.err != nil {
		return nil, s.n, s.err
	}
	return st, s.n, nil
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

// Load deserializes a single-slot table previously written with WriteTo.
// Any truncated, bit-flipped, or internally inconsistent input is rejected
// with a *CorruptError; Load never panics on garbage and never returns a
// table that fails CheckInvariants.
func Load(r io.Reader) (*Table, error) {
	t, _, err := loadSnapshot(r, kindSingle, New)
	return t, err
}

// LoadBlocked deserializes a blocked table previously written with WriteTo,
// with the same rejection guarantees as Load.
func LoadBlocked(r io.Reader) (*BlockedTable, error) {
	t, _, err := loadSnapshot(r, kindBlocked, NewBlocked)
	return t, err
}

// restorer is a freshly built table that a validated snapshot can be
// restored into; both kinds implement it through their shared state.
type restorer interface {
	restore(st *snapshotState, offset int64) error
}

// loadSnapshot reads one snapshot of the given kind and restores it into the
// table build makes from the snapshot's configuration. It returns the bytes
// consumed.
func loadSnapshot[T restorer](r io.Reader, kind uint8, build func(Config) (T, error)) (T, int64, error) {
	var none T
	st, n, err := readSnapshot(r, kind)
	if err != nil {
		return none, n, err
	}
	t, err := build(st.cfg)
	if err != nil {
		return none, n, &CorruptError{Kind: kindNames[kind], Section: "header", Offset: n,
			Reason: "configuration rejected", Err: err}
	}
	if err := t.restore(st, n); err != nil {
		return none, n, err
	}
	return t, n, nil
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
		return &CorruptError{Kind: kind, Section: "onchip", Offset: n,
			Reason: "on-chip state invalid", Err: err}
	}
	if s.overflow != nil {
		if err := s.overflow.Restore(st.stash); err != nil {
			return &CorruptError{Kind: kind, Section: "stash", Offset: n,
				Reason: "stash rejected", Err: err}
		}
	}
	s.reseedRNG()
	if err := s.CheckInvariants(); err != nil {
		return &CorruptError{Kind: kind, Section: "consistency", Offset: n,
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
			return corruptf("", "onchip", 0, "counter %d holds %d, above d=%d", i, v, d)
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
