package atomicio

import (
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
// hold another file as a frame, outside its sections: a u64 length, then
// that file's own bytes, which count toward the outer file's trailer. The
// writer and the reader encode and decode fields in a buffer the stream
// owns, so a field costs no allocation and a checksum update covers a
// buffer of bytes, not a field. The reader fails at the first defect with a
// *CorruptError naming the file kind, section and offset; after that every
// read is a no-op, so a parser reads a whole section and checks the error
// once.

// The magic every file starts with, one per format. No single bit flip
// turns one into another, so a damaged magic always reads as corruption.
const (
	MagicTable      = "MCCK" // a core table snapshot, single-slot or blocked
	MagicSharded    = "MCSH" // the sharded container of table snapshots
	MagicCheckpoint = "MCRS" // a replicated node's checkpoint
)

var magics = []string{MagicTable, MagicSharded, MagicCheckpoint}

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
	// "checkpoint".
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

// bufSize is the stream's own buffer: fields encode into it and decode from
// it, and each checksum update covers at most one buffer of bytes.
const bufSize = 64 << 10

// Writer writes a file's fields, keeping the section and file checksums.
// Fields encode into a buffer the stream owns; the checksums catch up with
// the buffered bytes once per buffer, and where a section, frame or file
// ends. The first error sticks and turns every later write into a no-op;
// Finish reports it.
type Writer struct {
	out *output
	// parent is the stream a frame lies in (nil for a whole file): every
	// byte the frame writes counts toward its checksums too.
	parent  *Writer
	n       int64 // bytes written, as of the last sum
	fileCRC uint32
	sectCRC uint32
}

// output is a file's destination and buffer, which its frames share.
type output struct {
	w      io.Writer
	buf    []byte // bytes not yet written to w
	summed int    // buf[:summed] is in the checksums already
	err    error
}

// NewWriter returns a Writer that buffers its output to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{out: &output{w: w, buf: make([]byte, 0, bufSize)}}
}

// sum adds the bytes buffered since the last sum to the section checksum
// of s, and to the file checksum and count of s and of every stream s lies
// in.
func (s *Writer) sum() {
	o := s.out
	b := o.buf[o.summed:]
	s.sectCRC = crc32.Update(s.sectCRC, castagnoli, b)
	for p := s; p != nil; p = p.parent {
		p.n += int64(len(b))
		p.fileCRC = crc32.Update(p.fileCRC, castagnoli, b)
	}
	o.summed = len(o.buf)
}

// flush sums the buffer and writes it out; after an error it only empties
// the buffer.
func (s *Writer) flush() {
	s.sum()
	o := s.out
	if o.err == nil {
		_, o.err = o.w.Write(o.buf)
	}
	o.buf, o.summed = o.buf[:0], 0
}

// room returns the buffer with room for k more bytes, flushing it first
// when it has less.
func (s *Writer) room(k int) []byte {
	if o := s.out; cap(o.buf)-len(o.buf) < k {
		s.flush()
	}
	return s.out.buf
}

// Bytes writes b, at most a buffer's worth, as is.
func (s *Writer) Bytes(b []byte) { s.out.buf = append(s.room(len(b)), b...) }

func (s *Writer) U8(v uint8)   { s.out.buf = append(s.room(1), v) }
func (s *Writer) U32(v uint32) { s.out.buf = binary.LittleEndian.AppendUint32(s.room(4), v) }
func (s *Writer) U64(v uint64) { s.out.buf = binary.LittleEndian.AppendUint64(s.room(8), v) }

// U64s writes a length-prefixed word array.
func (s *Writer) U64s(vals []uint64) {
	s.U64(uint64(len(vals)))
	for _, v := range vals {
		s.U64(v)
	}
}

// BeginSection starts a new checksummed region.
func (s *Writer) BeginSection() {
	s.sum()
	s.sectCRC = 0
}

// EndSection appends the CRC32C of the bytes written since BeginSection.
// The checksum bytes themselves are covered by the file trailer only.
func (s *Writer) EndSection() {
	s.sum()
	s.U32(s.sectCRC)
}

// Frame writes a nested file of n bytes after its length: write writes the
// nested file, Finish included, to the stream it is passed (an error it
// returns is the stream's, which Finish reports), and Reader.Frame reads it
// back in place. The nested bytes go through s's buffer and count toward
// s's file checksum; a frame lies outside any section of s. The caller
// announces n, so nothing is staged, and the save fails unless write writes
// exactly n bytes.
func (s *Writer) Frame(n uint64, write func(*Writer) (int64, error)) {
	s.U64(n)
	s.sum()
	f := &Writer{out: s.out, parent: s}
	write(f)
	f.sum()
	if s.out.err == nil && uint64(f.n) != n {
		s.out.err = fmt.Errorf("atomicio: frame of %d bytes announced as %d", f.n, n)
	}
}

// Finish appends the trailer, the CRC32C of every byte written so far, and
// flushes a whole file's buffer. It returns the bytes written and the first
// error.
func (s *Writer) Finish() (int64, error) {
	s.sum()
	s.U32(s.fileCRC)
	if s.parent == nil {
		s.flush()
	} else {
		s.sum()
	}
	return s.n, s.out.err
}

// Reader reads a file's fields and verifies its checksums. Fields decode
// from a buffer the stream owns and fills from its source a buffer at a
// time; the checksums catch up with the bytes read once per buffer, and
// where a section, frame or file ends. The first error sticks and turns
// every later read into a no-op that returns zeros.
type Reader struct {
	in *input
	// parent is the stream a frame lies in (nil for a whole file): every
	// byte the frame reads counts toward its checksums and bound too.
	parent *Reader
	// left is how many bytes the stream may still read, as of the last
	// sum: the rest of its file or frame, or unbounded for a plain
	// io.Reader.
	left    int64
	n       int64 // bytes read, as of the last sum
	err     error
	fileCRC uint32
	sectCRC uint32
	kind    string // for error reports, set by Magic
	section string // the current section, for error reports
}

// input is a file's source and buffer, which its frames share.
type input struct {
	r      io.Reader
	buf    []byte // buf[pos:] is read from r, not yet from the stream
	pos    int
	summed int   // buf[summed:pos] is not yet in the checksums
	err    error // r's last error
	// sized is set when r holds every byte up to the whole file's bound,
	// as a file of known size does: an array that fits in the bound is
	// then present, and is allocated whole.
	sized bool
}

// NewReader returns a Reader over r with no bound on its length.
func NewReader(r io.Reader) *Reader {
	return &Reader{in: &input{r: r, buf: make([]byte, 0, bufSize)}, left: math.MaxInt64}
}

// Err returns the first error the stream met, nil if none.
func (s *Reader) Err() error { return s.err }

// Offset returns the number of bytes read so far.
func (s *Reader) Offset() int64 { return s.n + int64(s.in.pos-s.in.summed) }

// Fail records the first error as a *CorruptError tagged with the current
// section and offset.
func (s *Reader) Fail(reason string, err error) {
	if s.err == nil {
		s.err = &CorruptError{Kind: s.kind, Section: s.section, Offset: s.Offset(),
			Reason: reason, Err: err}
	}
}

// Failf is Fail with a formatted reason and no underlying error.
func (s *Reader) Failf(format string, args ...any) {
	s.Fail(fmt.Sprintf(format, args...), nil)
}

// sum adds the bytes read since the last sum to the section checksum of s,
// and to the file checksum, count and bound of s and of every stream s lies
// in.
func (s *Reader) sum() {
	in := s.in
	b := in.buf[in.summed:in.pos]
	s.sectCRC = crc32.Update(s.sectCRC, castagnoli, b)
	for p := s; p != nil; p = p.parent {
		p.n += int64(len(b))
		p.left -= int64(len(b))
		p.fileCRC = crc32.Update(p.fileCRC, castagnoli, b)
	}
	in.summed = in.pos
}

// next returns the stream's next k bytes, at most a buffer's worth, valid
// until the next read. Input that ends early, or a read past the end of the
// stream's file or frame, fails the stream as truncated and returns nil.
func (s *Reader) next(k int) []byte {
	if s.err != nil {
		return nil
	}
	in := s.in
	if len(in.buf)-in.pos < k || int64(k) > s.left-int64(in.pos-in.summed) {
		return s.fill(k)
	}
	in.pos += k
	return in.buf[in.pos-k : in.pos]
}

// fill is next's slow path: it sums what was read, moves the unread bytes
// to the front of the buffer and reads until k are there.
func (s *Reader) fill(k int) []byte {
	in := s.in
	s.sum()
	in.buf = in.buf[:copy(in.buf[:cap(in.buf)], in.buf[in.pos:])]
	in.pos, in.summed = 0, 0
	if len(in.buf) < k && in.err == nil {
		n, err := io.ReadAtLeast(in.r, in.buf[len(in.buf):cap(in.buf)], k-len(in.buf))
		in.buf, in.err = in.buf[:len(in.buf)+n], err
	}
	if avail := min(int64(len(in.buf)), s.left); int64(k) > avail {
		in.pos = int(avail)
		err := in.err
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		s.Fail("truncated input", err)
		return nil
	}
	in.pos = k
	return in.buf[:k]
}

// Magic starts reading a file of the given kind, which names it in every
// later *CorruptError: the first four bytes must be magic. Another magic
// this package knows is an intact file of another kind, and fails the
// stream with ErrOtherKind instead of a *CorruptError.
func (s *Reader) Magic(kind, magic string) {
	s.kind = kind
	b := s.next(4)
	if s.err != nil || string(b) == magic {
		return
	}
	switch got := string(b); {
	case slices.Contains(magics, got):
		s.err = fmt.Errorf("%w: magic %q, not a %s file", ErrOtherKind, got, kind)
	default:
		s.Failf("bad magic %q", got)
	}
}

func (s *Reader) U8() uint8 {
	if b := s.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (s *Reader) U32() uint32 {
	if b := s.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (s *Reader) U64() uint64 {
	if b := s.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Len reads the u64 length of an array of size-byte elements, which must
// equal want (what names the array in the error), and returns Alloc's
// capacity for it.
func (s *Reader) Len(want uint64, size int, what string) int {
	if n := s.U64(); s.err == nil && n != want {
		s.Failf("%s length %d does not match geometry %d", what, n, want)
	}
	return s.Alloc(want, size)
}

// Alloc returns the capacity to allocate up front for the n size-byte
// elements the stream holds next. On a file of known size that is n, and a
// file too short for them fails the stream as truncated. A stream of unknown
// length, or an array whose bytes an int cannot count, gets at most a
// buffer's worth, and the array grows as it is read, so memory follows the
// bytes present. Alloc returns 0 on a failed stream.
func (s *Reader) Alloc(n uint64, size int) int {
	switch {
	case s.err != nil:
		return 0
	case !s.in.sized || n > math.MaxInt/uint64(size):
		return int(min(n, uint64(bufSize/size)))
	case n > uint64(s.left-int64(s.in.pos-s.in.summed))/uint64(size):
		s.Fail("truncated input", io.ErrUnexpectedEOF)
		return 0
	}
	return int(n)
}

// U64sExact reads a length-prefixed word array whose length must equal
// want, allocated as Len says.
func (s *Reader) U64sExact(want uint64, what string) []uint64 {
	out := make([]uint64, 0, s.Len(want, 8, what))
	for i := uint64(0); i < want && s.err == nil; i++ {
		out = append(out, s.U64())
	}
	if s.err != nil {
		return nil
	}
	return out
}

// Section names the region read from here on, for error reports.
func (s *Reader) Section(name string) { s.section = name }

// BeginSection starts verifying a new checksummed region.
func (s *Reader) BeginSection(name string) {
	s.sum()
	s.section = name
	s.sectCRC = 0
}

// EndSection reads the stored section CRC32C and compares it with the
// bytes read since BeginSection.
func (s *Reader) EndSection() {
	if s.err != nil {
		return
	}
	s.sum()
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
	s.sum()
	want := s.fileCRC
	if got := s.U32(); s.err == nil && got != want {
		s.Failf("file checksum mismatch (stored %#08x, computed %#08x)", got, want)
	}
}

// Frame returns a stream over the next n bytes of s, a nested file that a
// Writer.Frame wrote after its length. The nested file is read in place:
// its bytes count toward s's file checksum, it cannot read past its n bytes,
// and End rejects what it leaves unread. A frame of a failed stream starts
// with that stream's error.
func (s *Reader) Frame(n uint64) *Reader {
	s.sum()
	return &Reader{in: s.in, parent: s, left: int64(min(n, uint64(s.left))), err: s.err}
}

// End rejects the bytes a file's or a frame's stream leaves unread: it
// holds exactly one file. It returns the stream's first error.
func (s *Reader) End() error {
	if s.err == nil {
		s.sum()
		if s.left > 0 {
			s.section = "trailer"
			s.Failf("%d trailing bytes after the trailer", s.left)
		}
	}
	return s.err
}
