package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo"
	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/keep"
	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/telemetry/trace"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("wire: server closed")

// Config configures a Server. The zero value of every field except Store is
// usable; defaults are applied by NewServer.
type Config struct {
	// Store is the table being served. Required, and must be safe for the
	// server's concurrency: each connection runs its requests on its own
	// goroutine, so unless the server has exactly one client connection the
	// store must be a Sharded table or a Table or Blocked wrapped with
	// NewConcurrent.
	Store mccuckoo.BatchStore

	// MaxConns caps simultaneously served connections (default 256). A
	// connection beyond the cap receives one ERR frame and is closed.
	MaxConns int

	// SubKeepalive is how often an idle op-log subscription sends an empty
	// REPLICATE frame (default 500ms). Keepalives refresh the subscriber's
	// view of the server's high-water sequence number, which is what the
	// replica-lag metric measures against.
	SubKeepalive time.Duration

	// Logf, when non-nil, receives one line per abnormal connection event
	// (protocol errors, panics, write failures).
	Logf func(format string, args ...any)

	// Trace, when non-nil, records server-side spans (request execution,
	// table ops with kick counts, replication applies, recovered panics)
	// for requests carrying a sampled trace context — plus slow and
	// panicking requests regardless of context, per the recorder's options.
	// Nil disables tracing at zero cost.
	Trace *trace.Recorder
}

// A connection's deadlines. One that sends no frame for idleTimeout is
// closed. One whose write takes longer than writeTimeout is dropped: a
// client that stops reading stalls its connection's goroutine in a write
// once TCP flow control fills the socket buffers.
const (
	idleTimeout  = 2 * time.Minute
	writeTimeout = 10 * time.Second
)

// Server serves the wire protocol over TCP (or any net.Listener). Each
// connection is served by one goroutine that reads, executes and writes, so
// a client may pipeline any number of requests: they run in order, and
// responses carry the request id. TCP flow control is the backpressure.
//
//mcvet:lifecycle
type Server struct {
	cfg Config
	// idle and write are the deadlines idleTimeout and writeTimeout;
	// TestServerTimeouts shortens them.
	idle, write time.Duration

	// rep is non-nil when the served store is a *Replicated; the
	// replication opcodes (VGET, SUBSCRIBE, REPLICATE) require it and are
	// answered with ERR otherwise.
	rep *Replicated

	mu sync.Mutex
	//mcvet:guardedby mu
	listeners map[net.Listener]struct{}
	//mcvet:guardedby mu
	conns map[net.Conn]struct{}
	//mcvet:guardedby mu
	draining bool

	// drain is closed when Shutdown begins, before the read deadlines of
	// the registered connections expire; a connection checks it between
	// arming its idle deadline and reading, so it cannot miss both.
	drain chan struct{}
	wg    sync.WaitGroup

	// Metrics. ops is indexed by request opcode.
	ops       [16]atomic.Int64
	subs      atomic.Int64
	errored   atomic.Int64
	panics    atomic.Int64
	badFrames atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	active    atomic.Int64
}

// NewServer validates cfg, applies defaults, and returns a Server ready for
// Serve.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("wire: Config.Store is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.SubKeepalive <= 0 {
		cfg.SubKeepalive = 500 * time.Millisecond
	}
	rep, _ := cfg.Store.(*Replicated)
	return &Server{
		cfg:       cfg,
		idle:      idleTimeout,
		write:     writeTimeout,
		rep:       rep,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drain:     make(chan struct{}),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error: ErrServerClosed after a clean Shutdown, the Accept error
// otherwise. Multiple Serve calls on different listeners are allowed.
func (s *Server) Serve(ln net.Listener) error {
	if !s.addListener(ln) {
		ln.Close()
		return ErrServerClosed
	}
	defer s.removeListener(ln)
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return ErrServerClosed
			}
			return err
		}
		s.accepted.Add(1)
		if !s.registerConn(nc) {
			s.rejected.Add(1)
			s.rejectConn(nc)
			continue
		}
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// Shutdown drains the server: listeners stop accepting, every connection
// executes the requests whose bytes it has already read and writes their
// responses, then connections close. If ctx expires first, remaining
// connections are force-closed and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

func (s *Server) addListener(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.listeners[ln] = struct{}{}
	return true
}

func (s *Server) removeListener(ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, ln)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.drain)
	for ln := range s.listeners {
		ln.Close()
	}
	// Interrupt blocked reads so the drain does not wait out the idle deadline.
	for nc := range s.conns {
		if err := nc.SetReadDeadline(time.Now()); err != nil {
			// Cannot interrupt the read by deadline; closing the
			// connection interrupts it the hard way.
			nc.Close()
		}
	}
}

// registerConn admits nc unless the server is draining or at MaxConns.
func (s *Server) registerConn(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[nc] = struct{}{}
	s.active.Add(1)
	return true
}

func (s *Server) unregisterConn(nc net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.conns[nc]; ok {
		delete(s.conns, nc)
		s.active.Add(-1)
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc := range s.conns {
		nc.Close()
	}
}

// rejectConn answers an over-limit connection with a single ERR frame
// (request id 0 — the client has not spoken yet) and closes it.
//
//mcvet:deadlined
func (s *Server) rejectConn(nc net.Conn) {
	if err := nc.SetWriteDeadline(time.Now().Add(s.write)); err == nil {
		// Without a deadline an unread ERR frame could pin this goroutine;
		// skip the courtesy frame and just close.
		b := respFrame(0, StatusErr, []byte("connection limit reached"))
		nc.Write(b)
	}
	nc.Close()
}

// respFrame encodes one response frame into a fresh buffer.
func respFrame(id uint64, status byte, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, FrameOverhead+len(payload)), Frame{
		Type:    respFlag | status,
		ID:      id,
		Payload: payload,
	})
}

// serveConn serves one connection on one goroutine (DESIGN.md §10): it
// reads requests into the connection's read buffer, executes each complete
// one in order, and appends its response to the output buffer. The output
// buffer is written whenever no complete request is left to decode, or once
// it passes keep.Bytes, so the goroutine never blocks on a read while holding
// unwritten responses, and pipelined responses share one write. A client
// that stops reading stalls the goroutine in a write: TCP flow control is
// the backpressure, and the write deadline frees the connection.
//
//mcvet:deadlined
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer s.unregisterConn(nc)
	defer nc.Close()
	h := &connHandler{srv: s}
	var (
		in   []byte // read buffer: in[off:] is read but not yet executed
		off  int
		rerr error // the last read's error, acted on once its bytes are executed
	)
	for {
		for {
			f, n, err := DecodeFrame(in[off:], DefaultMaxPayload)
			if errors.Is(err, io.ErrUnexpectedEOF) {
				break // no complete request left
			}
			if err == nil && f.IsResponse() {
				err = errors.New("received a response frame")
			}
			if err != nil {
				s.badFrames.Add(1)
				s.logf("wire: %s: read: %v", nc.RemoteAddr(), err)
				h.flush(nc) // answer the requests ahead of it
				return
			}
			off += n
			if f.Type == OpSub {
				s.ops[OpSub].Add(1)
				c := cursor{b: f.Payload}
				fromSeq := c.u64()
				if !c.ok() {
					h.errFrame(f.ID, "malformed subscribe payload")
					continue
				}
				if s.rep == nil {
					h.errFrame(f.ID, "store is not replicated")
					continue
				}
				// A subscribed client sends nothing more: the goroutine
				// becomes the op-log pump until the connection or the
				// server goes down.
				s.runSubscription(nc, h, f.ID, fromSeq)
				return
			}
			h.handle(f)
			if len(h.out) > keep.Bytes && !h.flush(nc) {
				return
			}
		}
		if !h.flush(nc) {
			return
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) && off < len(in) {
				rerr = io.ErrUnexpectedEOF
			}
			var ne net.Error
			switch {
			case errors.Is(rerr, io.EOF):
				// Clean disconnect between frames.
			case errors.As(rerr, &ne) && ne.Timeout():
				select {
				case <-s.drain:
					// Interrupted by shutdown: graceful exit.
				default:
					s.logf("wire: %s: idle timeout", nc.RemoteAddr())
				}
			default:
				s.badFrames.Add(1)
				s.logf("wire: %s: read: %v", nc.RemoteAddr(), rerr)
			}
			return
		}
		// The idle deadline is rearmed only once a frame has completed, so a
		// trickle of bytes that never completes one does not keep the
		// connection alive.
		if off > 0 || len(in) == 0 {
			if err := nc.SetReadDeadline(time.Now().Add(s.idle)); err != nil {
				// A connection that cannot arm its idle deadline is failing;
				// treat it like any other dead connection.
				s.logf("wire: %s: set read deadline: %v", nc.RemoteAddr(), err)
				return
			}
		}
		select {
		case <-s.drain:
			return
		default:
		}
		in, off = readRoom(in, off, DefaultMaxPayload), 0
		var n int
		n, rerr = nc.Read(in[len(in):cap(in)])
		in = in[:len(in)+n]
		s.bytesIn.Add(int64(n))
	}
}

// readRoom returns the read buffer for the next read: the unexecuted bytes
// in[off:] moved to the front, with room after them for at least the rest
// of the frame they begin. A buffer grown for one large frame is dropped
// once no large frame is pending (the keep rule).
func readRoom(in []byte, off, maxPayload int) []byte {
	rest := in[off:]
	need := keep.Bytes
	if len(rest) >= headerLen {
		// DecodeFrame has accepted this header, so its length is in bounds.
		_, _, n, _ := parseHeader(rest, maxPayload)
		need = max(need, headerLen+n+crcLen)
	}
	if need == keep.Bytes {
		in = keep.Slice(in)
	}
	if cap(in) < need {
		in = make([]byte, 0, need)
	}
	return append(in[:0], rest...)
}

// streamChunk is how many op-log entries a subscription pump packs into
// one REPLICATE frame (well under MaxEntriesPerFrame).
const streamChunk = 1024

// runSubscription is the op-log pump for one subscribed connection. It runs
// on the connection's goroutine and writes REPLICATE frames, each echoing
// the subscribe request id: whatever Replicated.pull hands it, which is a
// catch-up from the per-key sequence numbers when the subscriber started
// behind the ring (a full dump) or the ring overtook it, and op-log entries
// otherwise. A keepalive goes out only after a pull came back empty, so it
// tells the subscriber it has been sent everything appended before that
// pull.
//
// Frames are encoded through h like responses: each payload is built in
// h.pbuf and each frame in the connection's output buffer, so streaming
// allocates nothing (asserted by TestSubscriptionStreamZeroAlloc).
func (s *Server) runSubscription(nc net.Conn, h *connHandler, id uint64, fromSeq uint64) {
	rep := s.rep
	s.subs.Add(1)
	defer s.subs.Add(-1)
	sub, head, full := rep.subscribe(fromSeq)
	defer rep.unsubscribe(sub)

	// The handshake shares a write with the responses to any requests
	// pipelined ahead of SUBSCRIBE.
	h.okFrame(id, appendU8(appendU64(h.pbuf[:0], head), boolByte(full)))
	if !h.flush(nc) {
		return
	}
	send := func(head uint64, ents []Entry) bool {
		h.pbuf = AppendReplicatePayload(h.pbuf[:0], head, ents)
		h.frame(OpReplicate, id, h.pbuf)
		return h.flush(nc)
	}

	scratch := make([]Entry, 0, streamChunk)
	keepalive := time.NewTicker(s.cfg.SubKeepalive)
	defer keepalive.Stop()
	for {
		for {
			ents, head := rep.pull(sub, scratch)
			if len(ents) == 0 {
				break
			}
			if !send(head, ents) {
				return
			}
		}
		select {
		case <-sub.notify:
		case <-keepalive.C:
			if !send(rep.Applied(), nil) {
				return
			}
		case <-s.drain:
			return
		}
	}
}

// connHandler executes one connection's requests. Responses are appended to
// the output buffer and the scratch slices are reused across requests, so
// the steady-state serve path does not allocate per call (asserted by
// TestServePathZeroAlloc). Both obey the keep rule: a batch that grows a
// scratch slice or the output buffer past 4 KiB leaves nothing behind.
type connHandler struct {
	srv *Server

	// out is the output buffer: encoded frames not yet written.
	out []byte

	// pbuf is the response-payload scratch: payloads are built here, then
	// copied into the output buffer by AppendFrame, so it is free for the
	// next request as soon as respFrame returns.
	pbuf []byte

	keys     []uint64
	vals     []uint64
	results  []mccuckoo.InsertResult
	founds   []bool
	removed  []bool
	ents     []Entry
	statuses []byte
}

// frame appends one encoded frame to the output buffer. payload may alias
// h.pbuf; it is copied.
//
// Every frame a handler produces is its request's last use of the scratch,
// so frame also applies the keep rule to the scratch slices before the
// connection parks them until its next frame.
func (h *connHandler) frame(typ byte, id uint64, payload []byte) {
	h.out = AppendFrame(slices.Grow(h.out, FrameOverhead+len(payload)), Frame{Type: typ, ID: id, Payload: payload})
	h.pbuf, h.keys, h.vals = keep.Slice(h.pbuf), keep.Slice(h.keys), keep.Slice(h.vals)
	h.results, h.founds, h.removed = keep.Slice(h.results), keep.Slice(h.founds), keep.Slice(h.removed)
	h.ents, h.statuses = keep.Slice(h.ents), keep.Slice(h.statuses)
}

// respFrame appends one response frame through h.frame and returns its
// status.
func (h *connHandler) respFrame(id uint64, status byte, payload []byte) byte {
	h.frame(respFlag|status, id, payload)
	return status
}

// okFrame appends an OK response whose payload p was built in h.pbuf,
// keeping p's buffer as h.pbuf.
func (h *connHandler) okFrame(id uint64, p []byte) byte {
	h.pbuf = p
	return h.respFrame(id, StatusOK, p)
}

func (h *connHandler) errFrame(id uint64, msg string) byte {
	h.srv.errored.Add(1)
	return h.respFrame(id, StatusErr, []byte(msg))
}

// flush writes the output buffer, if it holds anything, under a fresh write
// deadline, then empties it under the keep rule. It reports whether the
// connection is still usable.
//
//mcvet:deadlined
func (h *connHandler) flush(nc net.Conn) bool {
	if len(h.out) == 0 {
		return true
	}
	s := h.srv
	err := nc.SetWriteDeadline(time.Now().Add(s.write))
	if err == nil {
		_, err = nc.Write(h.out)
	}
	if err != nil {
		s.logf("wire: %s: write: %v", nc.RemoteAddr(), err)
		return false
	}
	s.bytesOut.Add(int64(len(h.out)))
	h.out = keep.Slice(h.out)
	return true
}

// handle executes one request, appends its response frame to the output
// buffer and returns the response status. A panic in the store is isolated
// to this request: the output buffer is cut back to where the request
// began, the request is answered with ERR, counted in
// mccuckoo_server_panics_total and flight-recorded with the opcode, and the
// connection keeps serving.
func (h *connHandler) handle(f Frame) (status byte) {
	s := h.srv
	tr := s.cfg.Trace
	start := len(h.out)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			// Forced span: a panic is recorded even when the request is
			// untraced and the sampler would have skipped it.
			psp := tr.StartForced(f.Trace, trace.KindPanic)
			psp.Op = f.Type
			psp.FinishForced()
			s.logf("wire: panic serving %s request: %v", OpName(f.Type), r)
			h.out = h.out[:start]
			status = h.errFrame(f.ID, fmt.Sprintf("internal error: %v", r))
		}
	}()
	if f.Type >= 1 && f.Type < byte(len(s.ops)) {
		s.ops[f.Type].Add(1)
	}
	sp := tr.Start(f.Trace, trace.KindServerOp)
	sp.Op = f.Type
	defer sp.Finish()
	store := s.cfg.Store
	c := cursor{b: f.Payload}
	switch f.Type {
	case OpPing:
		if len(f.Payload) != 0 {
			return h.errFrame(f.ID, "malformed ping payload")
		}
		return h.respFrame(f.ID, StatusOK, nil)
	case OpGet:
		k := c.u64()
		if !c.ok() {
			return h.errFrame(f.ID, "malformed get payload")
		}
		tsp := sp.StartChild(trace.KindTableOp)
		v, found := store.Lookup(k)
		tsp.Op, tsp.Key = f.Type, hashutil.Mix64(k)
		tsp.Finish()
		return h.okFrame(f.ID, appendU64(appendU8(h.pbuf[:0], boolByte(found)), v))
	case OpPut:
		k, v := c.u64(), c.u64()
		if !c.ok() {
			return h.errFrame(f.ID, "malformed put payload")
		}
		tsp := sp.StartChild(trace.KindTableOp)
		r := store.Insert(k, v)
		tsp.Op, tsp.Key, tsp.Kicks = f.Type, hashutil.Mix64(k), int32(r.Kicks)
		tsp.Finish()
		return h.okFrame(f.ID, appendU32(appendU8(h.pbuf[:0], byte(r.Status)), uint32(r.Kicks)))
	case OpDel:
		k := c.u64()
		if !c.ok() {
			return h.errFrame(f.ID, "malformed del payload")
		}
		tsp := sp.StartChild(trace.KindTableOp)
		removed := store.Delete(k)
		tsp.Op, tsp.Key = f.Type, hashutil.Mix64(k)
		tsp.Finish()
		return h.okFrame(f.ID, appendU8(h.pbuf[:0], boolByte(removed)))
	case OpBatch:
		return h.handleBatch(f)
	case OpVGet:
		k := c.u64()
		if !c.ok() {
			return h.errFrame(f.ID, "malformed vget payload")
		}
		if s.rep == nil {
			return h.errFrame(f.ID, "store is not replicated")
		}
		tsp := sp.StartChild(trace.KindTableOp)
		state, v, seq := s.rep.VGet(k)
		tsp.Op, tsp.Key = f.Type, hashutil.Mix64(k)
		tsp.Finish()
		return h.okFrame(f.ID, appendU64(appendU64(appendU8(h.pbuf[:0], state), v), seq))
	case OpReplicate:
		_, ents, ok := ParseReplicatePayload(f.Payload, h.ents)
		if !ok {
			return h.errFrame(f.ID, "malformed replicate payload")
		}
		h.ents = ents
		if s.rep == nil {
			return h.errFrame(f.ID, "store is not replicated")
		}
		asp := sp.StartChild(trace.KindReplApply)
		h.statuses = s.rep.ApplyPush(ents, h.statuses)
		asp.Op, asp.Kicks = f.Type, int32(len(ents))
		asp.Finish()
		return h.okFrame(f.ID, append(appendU32(h.pbuf[:0], uint32(len(h.statuses))), h.statuses...))
	case OpDigest:
		lo, hi, maxKeys, name, ok := ParseDigestRequest(f.Payload)
		if !ok {
			return h.errFrame(f.ID, "malformed digest payload")
		}
		if s.rep == nil {
			return h.errFrame(f.ID, "store is not replicated")
		}
		digest, count, keys := s.rep.DigestRange(name, lo, hi, maxKeys)
		return h.okFrame(f.ID, AppendDigestResponse(h.pbuf[:0], digest, count, keys))
	case OpStats:
		if len(f.Payload) != 0 {
			return h.errFrame(f.ID, "malformed stats payload")
		}
		p, err := json.Marshal(statsOf(store))
		if err != nil {
			return h.errFrame(f.ID, "stats encoding failed: "+err.Error())
		}
		return h.respFrame(f.ID, StatusOK, p)
	default:
		return h.errFrame(f.ID, fmt.Sprintf("unknown opcode %d", f.Type))
	}
}

// handleBatch decodes a BATCH request into the handler's scratch slices,
// runs the matching BatchStore Into method, and encodes the per-item
// results.
func (h *connHandler) handleBatch(f Frame) byte {
	s := h.srv
	sub, n, records, ok := parseBatchHeader(f.Payload)
	if !ok {
		return h.errFrame(f.ID, "malformed batch payload")
	}
	h.keys = grow(h.keys, n)
	c := cursor{b: records}
	switch sub {
	case OpGet:
		for i := 0; i < n; i++ {
			h.keys[i] = c.u64()
		}
		h.vals = grow(h.vals, n)
		h.founds = grow(h.founds, n)
		s.cfg.Store.LookupBatchInto(h.keys, h.vals, h.founds)
		p := appendU32(appendU8(h.pbuf[:0], sub), uint32(n))
		for i := 0; i < n; i++ {
			p = appendU8(p, boolByte(h.founds[i]))
			p = appendU64(p, h.vals[i])
		}
		return h.okFrame(f.ID, p)
	case OpPut:
		h.vals = grow(h.vals, n)
		for i := 0; i < n; i++ {
			h.keys[i] = c.u64()
			h.vals[i] = c.u64()
		}
		h.results = grow(h.results, n)
		s.cfg.Store.InsertBatchInto(h.keys, h.vals, h.results)
		p := appendU32(appendU8(h.pbuf[:0], sub), uint32(n))
		for i := 0; i < n; i++ {
			p = appendU8(p, byte(h.results[i].Status))
			p = appendU32(p, uint32(h.results[i].Kicks))
		}
		return h.okFrame(f.ID, p)
	case OpDel:
		for i := 0; i < n; i++ {
			h.keys[i] = c.u64()
		}
		h.removed = grow(h.removed, n)
		s.cfg.Store.DeleteBatchInto(h.keys, h.removed)
		p := appendU32(appendU8(h.pbuf[:0], sub), uint32(n))
		for i := 0; i < n; i++ {
			p = appendU8(p, boolByte(h.removed[i]))
		}
		return h.okFrame(f.ID, p)
	default:
		return h.errFrame(f.ID, "unknown batch sub-op")
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// grow returns s resliced to n elements, reallocating when its capacity is
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// TableStats is the STATS response payload, JSON with the repo's snake_case
// convention. Gauges come from the store's accessors, lifetime counters
// from its Stats.
type TableStats struct {
	Len       int     `json:"len"`
	Capacity  int     `json:"capacity"`
	LoadRatio float64 `json:"load_ratio"`
	StashLen  int     `json:"stash_len"`

	Inserts     int64 `json:"inserts"`
	Updates     int64 `json:"updates"`
	Kicks       int64 `json:"kicks"`
	Stashed     int64 `json:"stashed"`
	Failures    int64 `json:"failures"`
	Lookups     int64 `json:"lookups"`
	Hits        int64 `json:"hits"`
	Deletes     int64 `json:"deletes"`
	StashProbes int64 `json:"stash_probes"`

	// Replica is present when the served store is a *Replicated: the
	// cluster tier's convergence checks read the digest and applied
	// sequence number from here.
	Replica *ReplicaStats `json:"replica,omitempty"`
}

func statsOf(store mccuckoo.Store) TableStats {
	st := store.Stats()
	ts := TableStats{
		Len:       store.Len(),
		Capacity:  store.Capacity(),
		LoadRatio: store.LoadRatio(),
		StashLen:  store.StashLen(),

		Inserts: st.Inserts, Updates: st.Updates, Kicks: st.Kicks,
		Stashed: st.Stashed, Failures: st.Failures, Lookups: st.Lookups,
		Hits: st.Hits, Deletes: st.Deletes, StashProbes: st.StashProbes,
	}
	if r, ok := store.(*Replicated); ok {
		rs := r.ReplicaStats()
		ts.Replica = &rs
	}
	return ts
}

// WritePrometheus writes the server's own metrics in Prometheus text
// exposition, under the mccuckoo_server_ prefix. It complements (and is
// mounted next to) the table telemetry exposition.
func (s *Server) WritePrometheus(w io.Writer) error {
	p := telemetry.NewPromWriter(w)
	p.Header("mccuckoo_server_requests_total", "Requests served, by opcode.", "counter")
	for op := byte(OpGet); op <= OpDigest; op++ {
		p.Int("mccuckoo_server_requests_total", telemetry.Label("op", OpName(op)), s.ops[op].Load())
	}
	p.Simple("mccuckoo_server_subscriptions_active", "Op-log subscriptions currently streaming.", "gauge", s.subs.Load())
	p.Simple("mccuckoo_server_errors_total", "Requests answered with ERR.", "counter", s.errored.Load())
	p.Simple("mccuckoo_server_panics_total", "Request handlers recovered from a panic.", "counter", s.panics.Load())
	p.Simple("mccuckoo_server_bad_frames_total", "Connections dropped for protocol violations.", "counter", s.badFrames.Load())
	p.Simple("mccuckoo_server_connections_accepted_total", "Connections accepted.", "counter", s.accepted.Load())
	p.Simple("mccuckoo_server_connections_rejected_total", "Connections rejected at the MaxConns limit.", "counter", s.rejected.Load())
	p.Simple("mccuckoo_server_bytes_read_total", "Request bytes read from connections (frame overhead included).", "counter", s.bytesIn.Load())
	p.Simple("mccuckoo_server_bytes_written_total", "Response bytes written.", "counter", s.bytesOut.Load())
	p.Simple("mccuckoo_server_connections_active", "Connections currently served.", "gauge", s.active.Load())
	return p.Err()
}
