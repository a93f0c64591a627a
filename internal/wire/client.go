package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo"
	"mccuckoo/internal/keep"
	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/telemetry/trace"

	"encoding/json"
)

// ErrClientClosed is returned by every call after Close.
var ErrClientClosed = errors.New("wire: client closed")

// ErrConnFailed wraps every error caused by a pooled connection dying
// (read failure, write failure, protocol violation by the server): requests
// pipelined on the dead connection fail fast with it instead of waiting
// out their timeouts, and the next call on the slot redials. Match with
// errors.Is.
var ErrConnFailed = errors.New("wire: connection failed")

// ServerError is a StatusErr response: the server executed (or rejected)
// the request and reported a failure. The connection remains healthy.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: server error: " + e.Msg }

// ClientConfig configures a Client. Only Addr is required.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string

	// Conns is the connection-pool size (default 2). Requests round-robin
	// over the pool and pipeline freely within each connection.
	Conns int

	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration

	// Dial, when non-nil, replaces net.DialTimeout for pool connections.
	// The fault-injection layer (internal/netchaos) interposes here so
	// tests can cut, slow, or reset individual peer links.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	// RequestTimeout bounds one request/response round trip, a wait for
	// the connection's dial included (default 10s).
	RequestTimeout time.Duration

	// MaxPayload bounds response payloads (default DefaultMaxPayload).
	MaxPayload int
}

// Client is a pooled, pipelining client. All methods are safe for
// concurrent use: any number of goroutines can share one Client (and one
// connection), and each connection matches responses to requests in order.
type Client struct {
	cfg        ClientConfig
	rr         atomic.Uint64
	closed     atomic.Bool
	reconnects atomic.Int64
	conns      []atomic.Pointer[clientConn] // read without a lock
	free       chan *waiter                 // idle waiters, buffered to maxIdleWaiters
}

// Dial validates cfg and returns a Client. Connections are established
// lazily, so Dial itself does not touch the network.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("wire: ClientConfig.Addr is required")
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 2
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return &Client{cfg: cfg, conns: make([]atomic.Pointer[clientConn], cfg.Conns), free: make(chan *waiter, maxIdleWaiters)}, nil
}

// Close closes every pooled connection. In-flight requests fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	for i := range c.conns {
		if cc := c.conns[i].Swap(nil); cc != nil {
			cc.fail(ErrClientClosed)
		}
	}
	return nil
}

// conn returns the pooled connection for the next request. A live slot is
// read without a lock. An empty or dead one gets a new connection, which
// dials on its own goroutine, so conn never waits for the network.
func (c *Client) conn() (*clientConn, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	// Index by the reduced counter: int(counter) goes negative once the
	// counter passes the int range.
	slot := &c.conns[c.rr.Add(1)%uint64(len(c.conns))]
	for {
		old := slot.Load()
		if old != nil && !old.dead.Load() {
			return old, nil
		}
		cc := &clientConn{cfg: &c.cfg, kick: make(chan struct{}, 1), armed: true}
		cc.timer = time.AfterFunc(c.cfg.RequestTimeout, cc.expire)
		if old != nil && (old.up.Load() || old.redials != nil) {
			cc.redials = &c.reconnects // a dead slot's redial, not pool warm-up
		}
		if !slot.CompareAndSwap(old, cc) {
			cc.timer.Stop()
			continue // another call refilled the slot first
		}
		//mcvet:allow goroutinelifecycle the conn's goroutine ends with the conn: a dial returns within DialTimeout, and fail/Close closes nc so the blocked ReadFrame returns
		go cc.run()
		if c.closed.Load() {
			cc.fail(ErrClientClosed) // Close ran meanwhile and may have missed cc
			return nil, ErrClientClosed
		}
		return cc, nil
	}
}

// Reconnects reports how many dead pooled connections were redialed.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// WritePrometheus writes the client's own metrics in Prometheus text
// exposition, under the mccuckoo_client_ prefix.
func (c *Client) WritePrometheus(w io.Writer) error {
	p := telemetry.NewPromWriter(w)
	p.Simple("mccuckoo_client_reconnects_total", "Pooled connections redialed after dying.", "counter", c.reconnects.Load())
	return p.Err()
}

// Sink receives the outcome of a request sent with Send. Done runs exactly
// once, outside the connection's locks, on the goroutine that completes
// the request: the reader (an OK payload, valid only until Done returns,
// or a *ServerError), the timer (a timeout) or a failure path, Send itself
// included. It must not block: the responses behind it wait for it.
type Sink interface {
	Done(resp []byte, err error)
}

// Send sends one request without waiting for it, traced when tc is valid
// (the zero context sends an untraced frame): it buffers the frame for the
// connection's writer and never waits for the network. payload is copied
// before Send returns. The request's outcome goes to s.Done.
func (c *Client) Send(tc trace.Context, op byte, payload []byte, s Sink) {
	cc, err := c.conn()
	if err != nil {
		s.Done(nil, err)
		return
	}
	cc.send(tc, op, payload, s)
}

// maxIdleWaiters bounds the waiters a client keeps for reuse: a burst
// deeper than steady traffic leaves nothing parked.
const maxIdleWaiters = 16

// waiter is the Sink of a call that waits: Done copies an OK payload into
// resp and wakes the caller, which decodes resp, then releases the waiter.
type waiter struct {
	c    *Client
	done chan error
	resp []byte
}

func (w *waiter) Done(resp []byte, err error) {
	if err == nil {
		w.resp = append(w.resp[:0], resp...) // a copy: resp aliases the read buffer
	}
	w.done <- err
}

// release hands w back to its client, resp under the keep rule.
func (w *waiter) release() {
	w.resp = keep.Slice(w.resp)
	select {
	case w.c.free <- w:
	default:
	}
}

// do sends one request and waits for its outcome. An OK payload is
// returned in w.resp, which the caller decodes before it releases w.
func (c *Client) do(tc trace.Context, op byte, payload []byte) (*waiter, error) {
	var w *waiter
	select {
	case w = <-c.free:
	default:
		w = &waiter{c: c, done: make(chan error, 1)}
	}
	c.Send(tc, op, payload, w)
	if err := <-w.done; err != nil {
		w.release()
		return nil, err
	}
	return w, nil
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	w, err := c.do(trace.Context{}, OpPing, nil)
	if err == nil {
		w.release()
	}
	return err
}

// Get looks up key.
func (c *Client) Get(key uint64) (value uint64, found bool, err error) {
	w, err := c.do(trace.Context{}, OpGet, appendU64(make([]byte, 0, 8), key))
	if err != nil {
		return 0, false, err
	}
	defer w.release()
	cur := cursor{b: w.resp}
	f, v := cur.u8(), cur.u64()
	if !cur.ok() {
		return 0, false, protoErrf("malformed get response")
	}
	return v, f != 0, nil
}

// Put inserts or updates key.
func (c *Client) Put(key, value uint64) (mccuckoo.InsertResult, error) {
	w, err := c.do(trace.Context{}, OpPut, appendU64(appendU64(make([]byte, 0, 16), key), value))
	if err != nil {
		return mccuckoo.InsertResult{}, err
	}
	defer w.release()
	cur := cursor{b: w.resp}
	st, kicks := cur.u8(), cur.u32()
	if !cur.ok() {
		return mccuckoo.InsertResult{}, protoErrf("malformed put response")
	}
	return mccuckoo.InsertResult{Status: mccuckoo.Status(st), Kicks: int(kicks)}, nil
}

// Del deletes key, reporting whether it was present.
func (c *Client) Del(key uint64) (bool, error) {
	w, err := c.do(trace.Context{}, OpDel, appendU64(make([]byte, 0, 8), key))
	if err != nil {
		return false, err
	}
	defer w.release()
	cur := cursor{b: w.resp}
	removed := cur.u8()
	if !cur.ok() {
		return false, protoErrf("malformed del response")
	}
	return removed != 0, nil
}

// doBatch round-trips a BATCH request over keys, paired with values when
// they are given, and checks that the response echoes its sub-op and count;
// cur is positioned at the response records, in w.resp.
func (c *Client) doBatch(sub byte, keys, values []uint64) (w *waiter, cur cursor, err error) {
	p := appendU32(appendU8(make([]byte, 0, 5+8*(len(keys)+len(values))), sub), uint32(len(keys)))
	for i, k := range keys {
		if p = appendU64(p, k); values != nil {
			p = appendU64(p, values[i])
		}
	}
	if w, err = c.do(trace.Context{}, OpBatch, p); err != nil {
		return nil, cur, err
	}
	cur = cursor{b: w.resp}
	if gotSub, gotN := cur.u8(), cur.u32(); cur.bad || gotSub != sub || int(gotN) != len(keys) {
		w.release()
		return nil, cur, protoErrf("malformed batch response header")
	}
	return w, cur, nil
}

// GetBatch looks up many keys in one round trip.
func (c *Client) GetBatch(keys []uint64) (values []uint64, found []bool, err error) {
	w, cur, err := c.doBatch(OpGet, keys, nil)
	if err != nil {
		return nil, nil, err
	}
	defer w.release()
	values = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	for i := range keys {
		found[i] = cur.u8() != 0
		values[i] = cur.u64()
	}
	if !cur.ok() {
		return nil, nil, protoErrf("malformed batch get response")
	}
	return values, found, nil
}

// PutBatch inserts many pairs in one round trip.
func (c *Client) PutBatch(keys, values []uint64) ([]mccuckoo.InsertResult, error) {
	if len(keys) != len(values) {
		panic("wire: PutBatch called with mismatched key/value lengths")
	}
	w, cur, err := c.doBatch(OpPut, keys, values)
	if err != nil {
		return nil, err
	}
	defer w.release()
	out := make([]mccuckoo.InsertResult, len(keys))
	for i := range out {
		st, kicks := cur.u8(), cur.u32()
		out[i] = mccuckoo.InsertResult{Status: mccuckoo.Status(st), Kicks: int(kicks)}
	}
	if !cur.ok() {
		return nil, protoErrf("malformed batch put response")
	}
	return out, nil
}

// DelBatch deletes many keys in one round trip.
func (c *Client) DelBatch(keys []uint64) ([]bool, error) {
	w, cur, err := c.doBatch(OpDel, keys, nil)
	if err != nil {
		return nil, err
	}
	defer w.release()
	out := make([]bool, len(keys))
	for i := range out {
		out[i] = cur.u8() != 0
	}
	if !cur.ok() {
		return nil, protoErrf("malformed batch del response")
	}
	return out, nil
}

// Stats fetches the server's table statistics.
func (c *Client) Stats() (TableStats, error) {
	w, err := c.do(trace.Context{}, OpStats, nil)
	if err != nil {
		return TableStats{}, err
	}
	defer w.release()
	var st TableStats
	if err := json.Unmarshal(w.resp, &st); err != nil {
		return TableStats{}, protoErrf("malformed stats response: %v", err)
	}
	return st, nil
}

// VGet fetches key's replication state, traced when tc is valid: missing,
// live (value and last-write sequence number), or tombstone (deletion
// sequence number). The server must run a *Replicated store.
func (c *Client) VGet(tc trace.Context, key uint64) (state byte, value, seq uint64, err error) {
	w, err := c.do(tc, OpVGet, AppendVGetRequest(make([]byte, 0, 8), key))
	if err != nil {
		return 0, 0, 0, err
	}
	defer w.release()
	return ParseVGetResponse(w.resp)
}

// Replicate pushes sequence-numbered entries (a repair), traced when tc is
// valid, and returns the per-entry apply statuses. head is the sender's
// high-water sequence number. The server must run a *Replicated store.
func (c *Client) Replicate(tc trace.Context, head uint64, ents []Entry) ([]byte, error) {
	p := AppendReplicatePayload(make([]byte, 0, replicateHeadLen+len(ents)*entrySize), head, ents)
	w, err := c.do(tc, OpReplicate, p)
	if err != nil {
		return nil, err
	}
	defer w.release()
	statuses, err := ParseReplicateResponse(w.resp, len(ents))
	return slices.Clone(statuses), err // nil on error
}

// DigestRange fetches the server's XOR digest over keys in [lo, hi] that
// the named requester co-owns with the server, plus the matched-key count,
// traced when tc is valid; when the count is at most maxKeys the keys are
// enumerated. The server must run a *Replicated store.
func (c *Client) DigestRange(tc trace.Context, name string, lo, hi uint64, maxKeys int) (digest, count uint64, keys []DigestEntry, err error) {
	p := AppendDigestRequest(make([]byte, 0, 24+len(name)), lo, hi, maxKeys, name)
	w, err := c.do(tc, OpDigest, p)
	if err != nil {
		return 0, 0, nil, err
	}
	defer w.release()
	digest, count, keys, ok := ParseDigestResponse(w.resp)
	if !ok {
		return 0, 0, nil, protoErrf("malformed digest response")
	}
	return digest, count, keys, nil
}

type pending struct {
	sink     Sink // nil once the request timed out
	id       uint64
	deadline time.Time
	op       byte
}

// clientConn is one pooled connection and its two goroutines. The first
// dials, starts the writer, then reads; no caller touches the socket. A
// server answers a connection's requests in order (DESIGN.md §10), so
// requests are queued in wire order and the reader completes the oldest
// pending request with each response. One timer, armed for the oldest
// pending deadline, times requests out.
//
//mcvet:lifecycle
type clientConn struct {
	cfg   *ClientConfig
	dead  atomic.Bool
	up    atomic.Bool   // the dial succeeded
	timer *time.Timer   // set once, before the conn is shared
	kick  chan struct{} // buffered 1: frames wait in wbuf; closed by fail
	// redials counts this connection's dial when the slot's earlier
	// connection, or one before it, had dialed; nil otherwise.
	redials *atomic.Int64

	mu sync.Mutex
	//mcvet:guardedby mu
	nc net.Conn // nil while the connection dials
	//mcvet:guardedby mu
	wbuf []byte // frames the writer has not taken, in id order (keep rule)
	//mcvet:guardedby mu
	wdeadline time.Time // the newest buffered request's deadline
	//mcvet:guardedby mu
	queue []pending // sent requests not yet answered, oldest first
	//mcvet:guardedby mu
	nextID uint64
	//mcvet:guardedby mu
	armed bool // the timer is set for the oldest pending deadline
	//mcvet:guardedby mu
	failure error
}

// run is the connection's first goroutine: it dials, starts the writer,
// which sends the requests buffered during the dial, then reads responses
// until the connection dies.
func (cc *clientConn) run() {
	nc, err := cc.cfg.Dial(cc.cfg.Addr, cc.cfg.DialTimeout)
	if err != nil {
		cc.fail(fmt.Errorf("wire: dial %s: %w", cc.cfg.Addr, err))
		return
	}
	cc.mu.Lock()
	cc.nc = nc
	closed := cc.failure != nil // the client closed during the dial
	cc.mu.Unlock()
	if closed {
		nc.Close()
		return
	}
	cc.up.Store(true)
	if cc.redials != nil {
		cc.redials.Add(1)
	}
	go cc.writeLoop(nc)
	cc.readLoop(nc)
}

// send queues s for the next request id and buffers its request frame for
// the writer, unless the connection failed: then s completes at once. It
// never waits for the network.
func (cc *clientConn) send(tc trace.Context, op byte, payload []byte, s Sink) {
	cc.mu.Lock()
	err := cc.failure
	if err == nil {
		cc.nextID++
		deadline := time.Now().Add(cc.cfg.RequestTimeout)
		cc.queue = append(cc.queue, pending{sink: s, id: cc.nextID, deadline: deadline, op: op})
		if !cc.armed {
			cc.armed = true
			cc.timer.Reset(cc.cfg.RequestTimeout)
		}
		cc.wbuf = AppendFrame(slices.Grow(cc.wbuf, FrameOverhead+trace.ContextSize+len(payload)),
			Frame{Type: op, ID: cc.nextID, Payload: payload, Trace: tc})
		cc.wdeadline = deadline
		select {
		case cc.kick <- struct{}{}:
		default: // the writer is already due
		}
	}
	cc.mu.Unlock()
	if err != nil {
		s.Done(nil, err)
	}
}

// writeLoop is the connection's writer: at each kick it takes every
// buffered frame and writes them, under the newest one's deadline. A
// failed deadline arm is a write failure: without it a dead peer could pin
// the write forever.
//
//mcvet:deadlined
func (cc *clientConn) writeLoop(nc net.Conn) {
	var buf []byte
	for range cc.kick {
		cc.mu.Lock()
		buf, cc.wbuf = cc.wbuf, buf
		deadline := cc.wdeadline
		cc.mu.Unlock()
		if len(buf) == 0 {
			continue
		}
		err := nc.SetWriteDeadline(deadline)
		if err == nil {
			_, err = nc.Write(buf)
		}
		buf = keep.Slice(buf)
		if err != nil {
			cc.fail(fmt.Errorf("%w: write: %v", ErrConnFailed, err))
			return
		}
	}
}

// expire times out each queued request whose deadline passed, alone, and
// rearms the timer for the oldest one left. A timed-out request stays
// queued without its sink until its late response arrives and is dropped.
func (cc *clientConn) expire() {
	for s, err := cc.nextExpired(); s != nil; s, err = cc.nextExpired() {
		s.Done(nil, err)
	}
}

// nextExpired takes the sink of the oldest overdue request, or rearms the
// timer for the oldest pending deadline and returns nil. An overdue
// request whose frame the writer has not taken is never sent: deadlines
// follow id order, so that frame is the oldest one buffered.
func (cc *clientConn) nextExpired() (Sink, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	now := time.Now()
	for i := range cc.queue {
		p := &cc.queue[i]
		if d := p.deadline.Sub(now); d > 0 {
			cc.timer.Reset(d)
			return nil, nil
		}
		if s := p.sink; s != nil {
			p.sink = nil
			if b := cc.wbuf; len(b) >= headerLen && binary.LittleEndian.Uint64(b[4:12]) == p.id {
				cc.wbuf = b[:copy(b, b[headerLen+int(binary.LittleEndian.Uint32(b[12:16]))+crcLen:])]
			}
			return s, fmt.Errorf("wire: request %d (%s) timed out after %v", p.id, OpName(p.op), cc.cfg.RequestTimeout)
		}
	}
	cc.armed = false
	return nil, nil
}

// dequeue pops the request a response to id answers: the oldest one, after
// dropping timed-out requests the server never answered. ok is false if id
// answers none; s is nil if the request timed out.
func (cc *clientConn) dequeue(id uint64) (s Sink, ok bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for len(cc.queue) > 0 {
		p := cc.queue[0]
		if p.id != id && p.sink != nil {
			return nil, false
		}
		n := copy(cc.queue, cc.queue[1:])
		cc.queue[n] = pending{}
		if cc.queue = cc.queue[:n]; p.id == id {
			return p.sink, true
		}
	}
	return nil, false
}

// fail marks the connection dead, stops its writer and fails every pending
// request.
func (cc *clientConn) fail(err error) {
	cc.dead.Store(true)
	cc.mu.Lock()
	if cc.failure == nil {
		cc.failure = err
		close(cc.kick)
	}
	cc.timer.Stop()
	err, nc, queue := cc.failure, cc.nc, cc.queue
	cc.queue, cc.wbuf = nil, nil
	cc.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
	for _, p := range queue {
		if p.sink != nil {
			p.sink.Done(nil, err)
		}
	}
}

// readLoop completes each pending request with its response until the
// connection dies.
//
//mcvet:deadlined
func (cc *clientConn) readLoop(nc net.Conn) {
	var buf []byte
	for {
		// The demux read deliberately has no deadline: it must outlive any
		// single request, and request timeouts live in the connection's
		// timer. Close/fail closing the conn is what unblocks it.
		//mcvet:allow deadlinearm demux read is unbounded by design; bounded by conn close, not a timer
		f, b, err := ReadFrame(nc, cc.cfg.MaxPayload, buf)
		var s Sink
		ok := false
		if err == nil && f.IsResponse() {
			s, ok = cc.dequeue(f.ID)
		}
		if !ok {
			if err == nil {
				err = fmt.Errorf("frame %d of type %#x answers no pending request", f.ID, f.Type)
			}
			cc.fail(fmt.Errorf("%w: %v", ErrConnFailed, err))
			return
		}
		switch {
		case s == nil: // a late response to a timed-out request
		case f.Status() == StatusOK:
			s.Done(f.Payload, nil)
		case f.Status() == StatusErr:
			s.Done(nil, &ServerError{Msg: string(f.Payload)})
		default:
			s.Done(nil, protoErrf("unknown response status %d", f.Status()))
		}
		buf = keep.Slice(b)
	}
}
