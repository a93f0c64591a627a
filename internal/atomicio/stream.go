package atomicio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// The checksummed stream every file is written and read through. A file is
// a sequence of little-endian fields. Sections end with the CRC32C of the
// bytes since the section began, and the file ends with a trailer: the
// CRC32C of every byte before it, section checksums included. A file may
// hold another file as a frame: a u64 length, then that file's own bytes,
// which count toward the outer file's checksums. The reader fails at the
// first defect with a *CorruptError naming the file kind, section and
// offset; after that every read is a no-op, so a parser reads a whole
// section and checks the error once.

// The magic every file starts with, one per format. No single bit flip
// turns one into another, so a damaged magic always reads as corruption.
const (
	MagicTable   = "MCCK" // a core table snapshot, single-slot or blocked
	MagicSharded = "MCSH" // the sharded container of table snapshots
	MagicSidecar = "MCRS" // the replica sidecar
)

var magics = []string{MagicTable, MagicSharded, MagicSidecar}

// ErrOtherKind is wrapped by the error a loader returns for an intact file
// of another kind: one that starts with another known magic, or a table
// snapshot of the other table kind whose header checksum passed. It is not
// corruption, so a caller that tries each loader in turn counts nothing.
var ErrOtherKind = errors.New("atomicio: file of another kind")

// CorruptError is the typed rejection every loader returns when its input
// is truncated, bit-flipped, internally inconsistent, or out of the
// format's bounds. A loader never panics on garbage and never hands back a
// silently-wrong table: any anomaly surfaces as one of these.
//
// Use errors.As to detect it:
//
//	var ce *atomicio.CorruptError
//	if errors.As(err, &ce) { log.Printf("file bad at %s+%d: %s", ce.Section, ce.Offset, ce.Reason) }
type CorruptError struct {
	// Kind names the file being loaded: "table", "blocked", "sharded" or
	// "sidecar".
	Kind string
	// Section names the region of the file that failed: "header",
	// "bookkeeping", "buckets", "onchip", "stash", "frame", "records",
	// "trailer", or "consistency" for post-load invariant failures.
	Section string
	// Offset is the byte position in the stream where the problem was
	// established; a table snapshot inside a sharded container counts from
	// the start of its frame.
	Offset int64
	// Reason is a human-readable description of the defect.
	Reason string
	// Err is the underlying error, if any (io errors, invariant
	// violations). It is exposed via Unwrap.
	Err error
}

// Error implements error.
func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("corrupt %s file (%s @%d): %s", e.Kind, e.Section, e.Offset, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap returns the underlying error, if any.
func (e *CorruptError) Unwrap() error { return e.Err }

// castagnoli is the CRC32C polynomial table of every file.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer writes a file's fields, keeping the section and file checksums.
// The first error sticks and turns every later write into a no-op; Finish
// reports it.
type Writer struct {
	w       *bufio.Writer
	n       int64
	err     error
	fileCRC uint32
	sectCRC uint32
	frame   bytes.Buffer // Frame's staging buffer, reused across frames
}

// NewWriter returns a Writer that buffers its output to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Bytes writes b as is.
func (s *Writer) Bytes(b []byte) {
	if s.err != nil {
		return
	}
	n, err := s.w.Write(b)
	s.n += int64(n)
	s.err = err
	s.fileCRC = crc32.Update(s.fileCRC, castagnoli, b[:n])
	s.sectCRC = crc32.Update(s.sectCRC, castagnoli, b[:n])
}

func (s *Writer) U8(v uint8) { s.Bytes([]byte{v}) }

func (s *Writer) U32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	s.Bytes(buf[:])
}

func (s *Writer) U64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.Bytes(buf[:])
}

// U64s writes a length-prefixed word array.
func (s *Writer) U64s(vals []uint64) {
	s.U64(uint64(len(vals)))
	for _, v := range vals {
		s.U64(v)
	}
}

// BeginSection starts a new checksummed region.
func (s *Writer) BeginSection() { s.sectCRC = 0 }

// EndSection appends the CRC32C of the bytes written since BeginSection.
// The checksum bytes themselves are covered by the file trailer only.
func (s *Writer) EndSection() {
	crc := s.sectCRC
	s.U32(crc)
}

// Frame writes a nested file as a u64 length followed by the bytes write
// produces; Reader.Frame reads it back in place.
func (s *Writer) Frame(write func(io.Writer) (int64, error)) {
	if s.err != nil {
		return
	}
	s.frame.Reset()
	if _, err := write(&s.frame); err != nil {
		s.err = err
		return
	}
	s.U64(uint64(s.frame.Len()))
	s.Bytes(s.frame.Bytes())
}

// Finish appends the trailer, the CRC32C of every byte written so far, and
// flushes. It returns the bytes written and the first error.
func (s *Writer) Finish() (int64, error) {
	crc := s.fileCRC
	s.U32(crc)
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.n, s.err
}

// Reader reads a file's fields and verifies its checksums. The first error
// sticks and turns every later read into a no-op that returns zeros.
type Reader struct {
	src *bufio.Reader
	// parent is the stream a frame lies in (nil for a whole file): every
	// byte the frame reads counts toward its checksums and bound too.
	parent *Reader
	// left is how many bytes the stream may still read: the rest of its
	// file or frame, or unbounded for a plain io.Reader.
	left    int64
	n       int64
	err     error
	fileCRC uint32
	sectCRC uint32
	kind    string // for error reports, set by Magic
	section string // the current section, for error reports
}

// NewReader returns a Reader over r with no bound on its length.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: bufio.NewReader(r), left: math.MaxInt64}
}

// Err returns the first error the stream met, nil if none.
func (s *Reader) Err() error { return s.err }

// Offset returns the number of bytes read so far.
func (s *Reader) Offset() int64 { return s.n }

// Fail records the first error as a *CorruptError tagged with the current
// section and offset.
func (s *Reader) Fail(reason string, err error) {
	if s.err == nil {
		s.err = &CorruptError{Kind: s.kind, Section: s.section, Offset: s.n,
			Reason: reason, Err: err}
	}
}

// Failf is Fail with a formatted reason and no underlying error.
func (s *Reader) Failf(format string, args ...any) {
	s.Fail(fmt.Sprintf(format, args...), nil)
}

// Magic starts reading a file of the given kind, which names it in every
// later *CorruptError: the first four bytes must be magic. Another magic
// this package knows is an intact file of another kind, and fails the
// stream with ErrOtherKind instead of a *CorruptError.
func (s *Reader) Magic(kind, magic string) {
	s.kind = kind
	var b [4]byte
	s.Bytes(b[:])
	switch got := string(b[:]); {
	case s.err != nil || got == magic:
	case slices.Contains(magics, got):
		s.err = fmt.Errorf("%w: magic %q, not a %s file", ErrOtherKind, got, kind)
	default:
		s.Failf("bad magic %q", got)
	}
}

// Bytes reads len(b) bytes into b. Input that ends early, or a read past
// the end of the stream's file or frame, fails as truncated.
func (s *Reader) Bytes(b []byte) {
	if s.err != nil {
		return
	}
	want := len(b)
	if int64(want) > s.left {
		b = b[:s.left]
	}
	n, err := io.ReadFull(s.src, b)
	for p := s; p != nil; p = p.parent {
		p.n += int64(n)
		p.left -= int64(n)
		p.fileCRC = crc32.Update(p.fileCRC, castagnoli, b[:n])
		p.sectCRC = crc32.Update(p.sectCRC, castagnoli, b[:n])
	}
	if n < want {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		s.Fail("truncated input", err)
	}
}

func (s *Reader) U8() uint8 {
	var buf [1]byte
	s.Bytes(buf[:])
	return buf[0]
}

func (s *Reader) U32() uint32 {
	var buf [4]byte
	s.Bytes(buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

func (s *Reader) U64() uint64 {
	var buf [8]byte
	s.Bytes(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// U64sExact reads a length-prefixed word array whose length must equal
// want, in bounded chunks: memory grows with the bytes actually present in
// the stream, so a corrupt length fails at the first missing chunk instead
// of allocating it all up front.
func (s *Reader) U64sExact(want uint64, what string) []uint64 {
	n := s.U64()
	if s.err != nil {
		return nil
	}
	if n != want {
		s.Failf("%s length %d does not match geometry %d", what, n, want)
		return nil
	}
	const chunk = 1 << 14
	out := make([]uint64, 0, min(n, chunk))
	var buf [8 * chunk]byte
	for remaining := n; remaining > 0; {
		c := min(remaining, chunk)
		s.Bytes(buf[:8*c])
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

// Section names the region read from here on, for error reports.
func (s *Reader) Section(name string) { s.section = name }

// BeginSection starts verifying a new checksummed region.
func (s *Reader) BeginSection(name string) {
	s.section = name
	s.sectCRC = 0
}

// EndSection reads the stored section CRC32C and compares it with the
// bytes read since BeginSection.
func (s *Reader) EndSection() {
	if s.err != nil {
		return
	}
	want := s.sectCRC
	if got := s.U32(); s.err == nil && got != want {
		s.Failf("section checksum mismatch (stored %#08x, computed %#08x)", got, want)
	}
}

// Trailer reads the file CRC32C and compares it with every byte read
// before it.
func (s *Reader) Trailer() {
	s.section = "trailer"
	if s.err != nil {
		return
	}
	want := s.fileCRC
	if got := s.U32(); s.err == nil && got != want {
		s.Failf("file checksum mismatch (stored %#08x, computed %#08x)", got, want)
	}
}

// Frame returns a stream over the next n bytes of s, a nested file that a
// Writer.Frame wrote after its length. The nested file is read in place:
// its bytes count toward s's checksums, it cannot read past its n bytes,
// and End rejects what it leaves unread. A frame of a failed stream starts
// with that stream's error.
func (s *Reader) Frame(n uint64) *Reader {
	return &Reader{src: s.src, parent: s, left: int64(min(n, uint64(s.left))), err: s.err}
}

// End rejects the bytes a file's or a frame's stream leaves unread: it
// holds exactly one file. It returns the stream's first error.
func (s *Reader) End() error {
	if s.err == nil && s.left > 0 {
		s.section = "trailer"
		s.Failf("%d trailing bytes after the trailer", s.left)
	}
	return s.err
}
