// Package trace is the distributed-tracing layer of the cluster tier
// (DESIGN.md §13): a zero-dependency, allocation-disciplined span recorder
// that follows one client request across the client fan-out, the per-replica
// round trips, the server's execution, the table operation (kick chain
// included), the replication apply, and the anti-entropy repairs.
//
// A trace begins at the client with Begin, which applies 1-in-N head
// sampling and mints a Context: 16 bytes — trace id, parent span id, hop
// count, flags — that the wire protocol carries as an optional payload
// prefix gated by a flag bit in the frame type byte (internal/wire). Each
// hop calls Start/Finish around its work; finished spans land in the same
// seqlock flight-recorder ring type as the telemetry events
// (telemetry.Ring), so recording is a handful of atomic stores and never
// allocates.
//
// Two capture rules decide whether a finished span is kept:
//
//   - sampled traces (the Context's sampled bit, decided once at Begin)
//     record every span, and
//   - spans slower than the configured threshold record always, sampled or
//     not, so tail latencies are never invisible just because the head
//     sampler skipped them.
//
// A nil *Recorder is valid everywhere and records nothing: tracing compiled
// in but disabled costs zero allocations and no atomics on the hot path
// (guarded by TestUntracedPathZeroAlloc and mcvet's hotpathalloc).
package trace

import (
	"sync/atomic"
	"time"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/telemetry"
)

// ContextSize is the wire size of an encoded Context: the fixed-length
// payload prefix a traced frame carries.
const ContextSize = 16

// FlagSampled marks a trace chosen by head sampling: every hop records all
// of its spans. Unset, only slow spans are captured.
const FlagSampled uint8 = 0x01

// Context is the trace state that crosses process boundaries. The zero
// Context means "untraced" and encodes to nothing (the frame is
// byte-identical to an untraced one).
type Context struct {
	// TraceID identifies the request end to end; zero means untraced.
	TraceID uint64
	// SpanID is the sender's span — the parent of whatever span the
	// receiving hop starts.
	SpanID uint32
	// Hop counts process boundaries crossed, client = 0.
	Hop uint8
	// Flags carries the sampling decision (FlagSampled); unknown bits are
	// preserved across hops for forward compatibility.
	Flags uint8
}

// Valid reports whether the context belongs to a live trace.
func (tc Context) Valid() bool { return tc.TraceID != 0 }

// Sampled reports whether the trace was chosen by head sampling.
func (tc Context) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// AppendContext appends the 16-byte wire encoding of tc to dst: trace id
// (8, little-endian), span id (4, little-endian), hop, flags, and two
// reserved zero bytes.
//
//mcvet:hotpath
func AppendContext(dst []byte, tc Context) []byte {
	//mcvet:allow hotpathalloc appends into the caller's frame buffer, which AppendFrame sizes up front
	return append(dst,
		byte(tc.TraceID), byte(tc.TraceID>>8), byte(tc.TraceID>>16), byte(tc.TraceID>>24),
		byte(tc.TraceID>>32), byte(tc.TraceID>>40), byte(tc.TraceID>>48), byte(tc.TraceID>>56),
		byte(tc.SpanID), byte(tc.SpanID>>8), byte(tc.SpanID>>16), byte(tc.SpanID>>24),
		tc.Hop, tc.Flags, 0, 0)
}

// ParseContext decodes a Context from the front of b. It rejects (ok=false)
// a short buffer, a zero trace id, and nonzero reserved bytes — the decoder
// must accept only encodings AppendContext can produce, so an accepted
// traced frame always re-encodes byte-identically (the wire fuzzer's
// invariant). It runs on every traced frame decode, so it shares the
// record path's zero-allocation contract.
//
//mcvet:hotpath
func ParseContext(b []byte) (tc Context, ok bool) {
	if len(b) < ContextSize {
		return Context{}, false
	}
	tc.TraceID = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	tc.SpanID = uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24
	tc.Hop, tc.Flags = b[12], b[13]
	if tc.TraceID == 0 || b[14] != 0 || b[15] != 0 {
		return Context{}, false
	}
	return tc, true
}

// Kind classifies what a span timed.
type Kind uint8

const (
	// KindClientOp is a cluster client operation end to end: the fan-out
	// root span.
	KindClientOp Kind = 1 + iota
	// KindReplicaRTT is one replica's round trip within a fan-out.
	KindReplicaRTT
	// KindServerOp is a server-side request execution, from the decoded
	// frame to its encoded response.
	KindServerOp
	// KindTableOp is the table operation under a server op; Kicks carries
	// the kick-chain length for inserts.
	KindTableOp
	// KindReplApply is a replication apply — a pushed REPLICATE batch or a
	// subscription-stream batch; Kicks carries the entry count and Wait the
	// stream lag in entries.
	KindReplApply
	// KindSweepRepair is one peer's anti-entropy sweep; Kicks carries the
	// repaired-key count. Repair pulls and pushes reuse the sweep's trace
	// id, so server-side spans tie each repair to the sweep that caused it.
	KindSweepRepair
	// KindPanic marks a recovered request-handler panic; Op carries the
	// opcode. Always recorded, sampled or not.
	KindPanic
)

// String returns the kind's snake_case name, as used in the JSON dump.
func (k Kind) String() string {
	switch k {
	case KindClientOp:
		return "client_op"
	case KindReplicaRTT:
		return "replica_rtt"
	case KindServerOp:
		return "server_op"
	case KindTableOp:
		return "table_op"
	case KindReplApply:
		return "repl_apply"
	case KindSweepRepair:
		return "sweep_repair"
	case KindPanic:
		return "panic"
	default:
		return "unknown"
	}
}

// Span is one timed unit of work. Start/StartChild fill the identity
// fields; the caller may set Op, Key, Peer, Kicks, and Wait before Finish.
// The zero Span is a no-op: every method on it is safe and records nothing.
type Span struct {
	TraceID uint64
	SpanID  uint32
	// Parent is the creating span's id (or the wire context's span id);
	// zero for roots.
	Parent uint32
	Kind   Kind
	// Hop is the process-boundary count inherited from the context.
	Hop uint8
	// Op is the wire opcode the span concerns, when any.
	Op uint8
	// Flags is the trace's flag byte (FlagSampled and future bits).
	Flags uint8
	// Kicks is kind-dependent cargo: kick-chain length (table ops), entries
	// applied (replication applies), keys repaired (sweeps).
	Kicks int32
	// Peer is a 32-bit hash of the peer address involved, zero when local.
	Peer uint32
	// Key is the mixed key hash (the telemetry KeyHash convention), zero
	// when the span is not about one key.
	Key uint64
	// Start is the wall-clock start in Unix nanoseconds.
	Start int64
	// Dur is the span duration in nanoseconds, set by Finish.
	Dur int64
	// Wait is kind-dependent: stream lag in entries (replication applies),
	// zero otherwise.
	Wait int64

	rec *Recorder
	t0  time.Time
}

// spanRing is the flight-recorder capacity in spans.
const spanRing = 4096

// spanWords is the width of a span's ring record: trace id, span and parent
// ids, start, duration, wait, key hash, peer and kicks, and the packed
// kind/hop/op/flags bytes.
const spanWords = 8

// Options configures a Recorder.
type Options struct {
	// Sample is the head-sampling rate: Begin marks 1 in Sample traces as
	// sampled. 0 and 1 sample everything.
	Sample int

	// SlowNanos, when positive, records every span at least this slow even
	// in unsampled (or untraced) operations.
	SlowNanos int64
}

// Recorder owns the span flight-recorder ring. All methods are safe for
// concurrent use; a nil Recorder is valid and records nothing.
type Recorder struct {
	sample uint64
	slow   int64

	traces  atomic.Uint64
	sampled atomic.Uint64
	spanIDs atomic.Uint32
	spans   atomic.Int64
	slowRec atomic.Int64
	forced  atomic.Int64

	ring *telemetry.Ring
}

// New builds a Recorder. To disable tracing entirely, use a nil *Recorder
// instead — every method tolerates it.
func New(o Options) *Recorder {
	if o.Sample < 1 {
		o.Sample = 1
	}
	if o.SlowNanos < 0 {
		o.SlowNanos = 0
	}
	r := &Recorder{
		sample: uint64(o.Sample),
		slow:   o.SlowNanos,
		ring:   telemetry.NewRing(spanRing, spanWords),
	}
	// Span ids count from a per-process random offset so two nodes in the
	// same trace are unlikely to mint colliding ids (ids only need to be
	// unique within one trace for tree assembly).
	r.spanIDs.Store(uint32(hashutil.Mix64(uint64(time.Now().UnixNano()))))
	return r
}

// Enabled reports whether spans can be recorded at all.
func (r *Recorder) Enabled() bool { return r != nil }

// Cap returns the span ring capacity (0 when disabled).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.ring.Cap()
}

// Begin starts a new trace at its origin, applying head sampling. It
// returns the context the root span and downstream hops inherit — the zero
// Context when the recorder is nil or the sampler skipped this trace (the
// operation then proceeds untraced, slow-capture aside).
//
//mcvet:hotpath
func (r *Recorder) Begin() Context {
	if r == nil {
		return Context{}
	}
	n := r.traces.Add(1)
	if r.sample > 1 && n%r.sample != 0 {
		return Context{}
	}
	r.sampled.Add(1)
	id := hashutil.Mix64(uint64(time.Now().UnixNano()) ^ n<<40)
	if id == 0 {
		id = 1
	}
	return Context{TraceID: id, Flags: FlagSampled}
}

// Start opens a span under tc. When the recorder is nil, or tc is untraced
// and no slow threshold is armed, it returns the zero Span and the whole
// span lifecycle is free.
//
//mcvet:hotpath
func (r *Recorder) Start(tc Context, kind Kind) Span {
	if r == nil || (!tc.Sampled() && r.slow == 0) {
		return Span{}
	}
	return r.open(tc, kind)
}

// StartForced opens a span that FinishForced will record unconditionally —
// the panic path. Only a nil recorder makes it a no-op.
//
//mcvet:hotpath
func (r *Recorder) StartForced(tc Context, kind Kind) Span {
	if r == nil {
		return Span{}
	}
	return r.open(tc, kind)
}

//mcvet:hotpath
func (r *Recorder) open(tc Context, kind Kind) Span {
	now := time.Now()
	return Span{
		TraceID: tc.TraceID,
		SpanID:  r.spanIDs.Add(1),
		Parent:  tc.SpanID,
		Kind:    kind,
		Hop:     tc.Hop,
		Flags:   tc.Flags,
		Start:   now.UnixNano(),
		rec:     r,
		t0:      now,
	}
}

// StartChild opens a span under sp in the same process (hop unchanged). On
// the zero Span it returns the zero Span.
//
//mcvet:hotpath
func (sp *Span) StartChild(kind Kind) Span {
	if sp.rec == nil {
		return Span{}
	}
	return sp.rec.open(Context{TraceID: sp.TraceID, SpanID: sp.SpanID, Hop: sp.Hop, Flags: sp.Flags}, kind)
}

// Context returns the wire context downstream hops inherit from sp: same
// trace, sp as parent, hop bumped. The zero Span yields the zero Context,
// so an untraced or slow-capture-only span never taints the wire.
//
//mcvet:hotpath
func (sp *Span) Context() Context {
	if sp.rec == nil || sp.TraceID == 0 {
		return Context{}
	}
	return Context{TraceID: sp.TraceID, SpanID: sp.SpanID, Hop: sp.Hop + 1, Flags: sp.Flags}
}

// Finish closes the span and records it if its trace is sampled or it
// cleared the slow threshold.
//
//mcvet:hotpath
func (sp *Span) Finish() {
	r := sp.rec
	if r == nil {
		return
	}
	sp.Dur = time.Since(sp.t0).Nanoseconds()
	if sp.TraceID != 0 && sp.Flags&FlagSampled != 0 {
		r.record(sp)
		return
	}
	if r.slow > 0 && sp.Dur >= r.slow {
		r.slowRec.Add(1)
		r.record(sp)
	}
}

// FinishForced closes the span and records it regardless of sampling and
// duration — the panic path.
//
//mcvet:hotpath
func (sp *Span) FinishForced() {
	r := sp.rec
	if r == nil {
		return
	}
	sp.Dur = time.Since(sp.t0).Nanoseconds()
	r.forced.Add(1)
	r.record(sp)
}

//mcvet:hotpath
func (r *Recorder) record(sp *Span) {
	r.spans.Add(1)
	rec := [spanWords]uint64{
		sp.TraceID,
		uint64(sp.SpanID)<<32 | uint64(sp.Parent),
		uint64(sp.Start),
		uint64(sp.Dur),
		uint64(sp.Wait),
		sp.Key,
		uint64(sp.Peer)<<32 | uint64(uint32(sp.Kicks)),
		uint64(sp.Kind) | uint64(sp.Hop)<<8 | uint64(sp.Op)<<16 | uint64(sp.Flags)<<24,
	}
	r.ring.Add(rec[:])
}

// Spans returns the recorded spans, oldest first, skipping slots caught
// mid-write (telemetry.Ring's torn-slot rules). Nil-safe.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.ring.Len())
	r.ring.Each(func(rec []uint64) {
		out = append(out, Span{
			TraceID: rec[0],
			SpanID:  uint32(rec[1] >> 32),
			Parent:  uint32(rec[1]),
			Start:   int64(rec[2]),
			Dur:     int64(rec[3]),
			Wait:    int64(rec[4]),
			Key:     rec[5],
			Kicks:   int32(uint32(rec[6])),
			Peer:    uint32(rec[6] >> 32),
			Kind:    Kind(rec[7] & 0xff),
			Hop:     uint8(rec[7] >> 8),
			Op:      uint8(rec[7] >> 16),
			Flags:   uint8(rec[7] >> 24),
		})
	})
	return out
}

// PeerHash is the 32-bit address hash spans carry in Peer, shared by every
// layer so one peer renders identically everywhere.
func PeerHash(addr string) uint32 {
	return uint32(hashutil.BOB64([]byte(addr), 0))
}
