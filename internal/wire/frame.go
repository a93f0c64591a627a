// Package wire is the network serving layer of the McCuckoo tables: a
// stdlib-only length-prefixed binary protocol (DESIGN.md §10), a pipelined
// TCP server that binds any mccuckoo.Store and serves each connection on one
// goroutine, and a pooled, pipelining client.
//
// # Frame layout
//
// Every message in either direction is one frame:
//
//	offset  size  field
//	0       2     magic "MW"
//	2       1     version (1)
//	3       1     type: request opcode (0x40 bit = traced, see below),
//	              or 0x80|status for responses
//	4       8     request id (little-endian; responses echo it)
//	12      4     payload length N (little-endian)
//	16      N     payload
//	16+N    4     CRC32C over bytes [0, 16+N) — the Castagnoli polynomial,
//	              the same convention as the snapshot format (§7)
//
// A client may pipeline any number of requests on one connection; the
// server answers them in order, and each response echoes its request's id.
// Payload encodings are documented on the codec functions and in §10.
//
// # Traced frames
//
// A request whose type byte carries the 0x40 flag bit additionally prefixes
// its payload with a 16-byte trace context (internal/telemetry/trace,
// DESIGN.md §13). The advertised payload length and the CRC cover the
// prefix; the decoder strips both the flag and the prefix, so handlers see
// the opcode and payload exactly as in the untraced case. Untraced frames
// are byte-identical to the pre-tracing protocol and the version byte stays
// 1 (the §10 policy): an old decoder sees a traced frame only as an unknown
// opcode and answers ERR, never misparses it. Responses and server-pushed
// stream frames are never traced.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"mccuckoo/internal/telemetry/trace"
)

func init() {
	// Give the trace package (which cannot import wire) opcode names for
	// its span dumps and tree renders.
	trace.RegisterOpNames(OpName)
}

// Protocol constants.
const (
	magic0  = 'M'
	magic1  = 'W'
	Version = 1

	headerLen = 16
	crcLen    = 4
	// FrameOverhead is the fixed per-frame byte cost beyond the payload.
	FrameOverhead = headerLen + crcLen

	// DefaultMaxPayload bounds a frame payload (1 MiB): large enough for
	// a ~64k-element batch, small enough that a hostile length prefix
	// cannot balloon memory.
	DefaultMaxPayload = 1 << 20
)

// Request opcodes.
const (
	OpGet   byte = 1
	OpPut   byte = 2
	OpDel   byte = 3
	OpBatch byte = 4
	OpStats byte = 5
	OpPing  byte = 6

	// OpVGet is a versioned GET: the response carries the key's state
	// (missing/live/tombstone), value, and last-write sequence number, the
	// inputs the cluster tier's read-repair compares across replicas.
	// Requires the server to run a *Replicated store.
	OpVGet byte = 7

	// OpSub subscribes the connection to the server's op log. After the OK
	// response the server pushes OpReplicate frames (echoing the subscribe
	// request id) and the client must not send further requests on the
	// connection. Requires a *Replicated store.
	OpSub byte = 8

	// OpReplicate carries a batch of sequence-numbered entries. As a
	// request it is the replication push (cluster writes and read-repair):
	// the server applies each entry newest-write-wins and answers with
	// per-entry apply statuses. As a server-sent frame on a subscribed
	// connection it is the op-log stream and has no response.
	OpReplicate byte = 9

	// OpDigest asks for the XOR state digest over a key range, filtered to
	// keys the named requester shares replica ownership of with this node.
	// When the range holds few enough keys the response enumerates them
	// (key, meta pairs), which is how the anti-entropy sweeper's bisection
	// bottoms out. Requires a *Replicated store.
	OpDigest byte = 10
)

// respFlag marks a frame as a response; the low bits carry the status.
const respFlag byte = 0x80

// flagTraced marks a request frame whose payload begins with a 16-byte
// trace context (see the package comment). Valid on requests only.
const flagTraced byte = 0x40

// Response statuses.
const (
	// StatusOK carries the operation's result payload.
	StatusOK byte = 0
	// Status 1 is retired and must never be reused: older clients read it
	// as BUSY, a signal to retry the request. Clients now reject it as an
	// unknown status.

	// StatusErr carries a human-readable error string as payload. The
	// connection remains usable.
	StatusErr byte = 2
)

// castagnoli is the CRC32C table, shared with the snapshot format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded protocol frame. Payload aliases the buffer it was
// decoded from; copy it before the next read if it must outlive one.
type Frame struct {
	Type    byte
	ID      uint64
	Payload []byte

	// Trace is the frame's trace context. On decode it is filled from the
	// traced-frame prefix (zero for untraced frames); on encode a valid
	// context on a request sets the flag bit and writes the prefix.
	Trace trace.Context
}

// IsResponse reports whether the frame is a response.
func (f Frame) IsResponse() bool { return f.Type&respFlag != 0 }

// Status returns the response status (meaningless for requests).
func (f Frame) Status() byte { return f.Type &^ respFlag }

// OpName returns the mnemonic of a request opcode, for errors and metrics.
func OpName(op byte) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	case OpBatch:
		return "batch"
	case OpStats:
		return "stats"
	case OpPing:
		return "ping"
	case OpVGet:
		return "vget"
	case OpSub:
		return "subscribe"
	case OpReplicate:
		return "replicate"
	case OpDigest:
		return "digest"
	default:
		return "unknown"
	}
}

// ProtocolError is the typed error every frame decoder returns when the
// input violates the framing (bad magic, unknown version, oversized or
// truncated payload, checksum mismatch). A ProtocolError on a connection
// means the stream can no longer be trusted and must be closed.
type ProtocolError struct{ Reason string }

func (e *ProtocolError) Error() string { return "wire: protocol error: " + e.Reason }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{Reason: fmt.Sprintf(format, args...)}
}

// putHeader writes the fixed 16-byte frame header into b.
//
//mcvet:hotpath
func putHeader(b []byte, typ byte, id uint64, payloadLen int) {
	b[0], b[1], b[2], b[3] = magic0, magic1, Version, typ
	binary.LittleEndian.PutUint64(b[4:12], id)
	binary.LittleEndian.PutUint32(b[12:16], uint32(payloadLen))
}

// parseHeader validates and splits the fixed 16-byte frame header. max
// bounds the advertised payload length. (Not a //mcvet:hotpath: the
// rejection paths format errors, which allocates — by design, rejections
// are the cold path.)
func parseHeader(b []byte, max int) (typ byte, id uint64, payloadLen int, err error) {
	if b[0] != magic0 || b[1] != magic1 {
		return 0, 0, 0, protoErrf("bad magic %#02x%02x", b[0], b[1])
	}
	if b[2] != Version {
		return 0, 0, 0, protoErrf("unsupported version %d", b[2])
	}
	typ = b[3]
	id = binary.LittleEndian.Uint64(b[4:12])
	n := binary.LittleEndian.Uint32(b[12:16])
	if int64(n) > int64(max) {
		return 0, 0, 0, protoErrf("payload length %d exceeds limit %d", n, max)
	}
	return typ, id, int(n), nil
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. Encoding never fails; oversized payloads are the caller's bug and
// are caught by the peer's decoder. A valid f.Trace on a request sets the
// traced flag bit and prefixes the payload with the 16-byte context.
func AppendFrame(dst []byte, f Frame) []byte {
	typ, n := f.Type, len(f.Payload)
	traced := f.Trace.Valid() && typ&respFlag == 0
	if traced {
		typ |= flagTraced
		n += trace.ContextSize
	}
	var hdr [headerLen]byte
	putHeader(hdr[:], typ, f.ID, n)
	dst = append(dst, hdr[:]...)
	if traced {
		dst = trace.AppendContext(dst, f.Trace)
	}
	dst = append(dst, f.Payload...)
	crc := crc32.Update(0, castagnoli, dst[len(dst)-headerLen-n:])
	var tail [crcLen]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(dst, tail[:]...)
}

// assembleFrame builds the decoded Frame from a checksum-verified header
// and payload, stripping the traced-frame flag and prefix. It rejects the
// flag on responses and any prefix AppendContext could not have produced
// (short payload, zero trace id, nonzero reserved bytes), so every accepted
// frame re-encodes byte-identically.
func assembleFrame(typ byte, id uint64, payload []byte) (Frame, error) {
	if typ&flagTraced == 0 {
		return Frame{Type: typ, ID: id, Payload: payload}, nil
	}
	if typ&respFlag != 0 {
		return Frame{}, protoErrf("trace flag on response frame (type %#02x)", typ)
	}
	tc, ok := trace.ParseContext(payload)
	if !ok {
		return Frame{}, protoErrf("traced frame with invalid trace prefix (payload %d bytes)", len(payload))
	}
	return Frame{Type: typ &^ flagTraced, ID: id, Payload: payload[trace.ContextSize:], Trace: tc}, nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The returned payload aliases b. It
// returns io.ErrUnexpectedEOF when b holds a valid prefix of a frame and a
// *ProtocolError when b cannot be a frame at all.
func DecodeFrame(b []byte, max int) (Frame, int, error) {
	if len(b) < headerLen {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	typ, id, n, err := parseHeader(b[:headerLen], max)
	if err != nil {
		return Frame{}, 0, err
	}
	total := headerLen + n + crcLen
	if len(b) < total {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	want := binary.LittleEndian.Uint32(b[headerLen+n:])
	if got := crc32.Checksum(b[:headerLen+n], castagnoli); got != want {
		return Frame{}, 0, protoErrf("checksum mismatch: computed %08x, frame says %08x", got, want)
	}
	f, err := assembleFrame(typ, id, b[headerLen:headerLen+n])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, total, nil
}

// ReadFrame reads one frame from r. buf is an optional scratch buffer that
// is reused (and grown) across calls; the returned slice is the buffer to
// pass to the next call, and the frame's payload aliases it.
func ReadFrame(r io.Reader, max int, buf []byte) (Frame, []byte, error) {
	if cap(buf) < headerLen {
		buf = make([]byte, headerLen, headerLen+512)
	}
	buf = buf[:headerLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	_, _, n, err := parseHeader(buf, max)
	if err != nil {
		return Frame{}, buf, err
	}
	buf = slices.Grow(buf, n+crcLen)[:headerLen+n+crcLen]
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	f, _, err := DecodeFrame(buf, max)
	return f, buf, err
}
