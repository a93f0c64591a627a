package wire

import (
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

	// RequestTimeout bounds one request/response round trip (default 10s).
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
	dialing    []sync.Mutex                 // one redial per slot at a time
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
	return &Client{cfg: cfg, conns: make([]atomic.Pointer[clientConn], cfg.Conns), dialing: make([]sync.Mutex, cfg.Conns)}, nil
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

// conn returns a live pooled connection. A live slot is read without a
// lock; a dead one is redialed under its own slot's mutex, so a slow dial
// stalls only the calls that landed on that slot.
func (c *Client) conn() (*clientConn, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	// Reduce before converting: int(counter) goes negative once the counter
	// passes the int range.
	i := int(c.rr.Add(1) % uint64(len(c.conns)))
	if cc := c.conns[i].Load(); cc != nil && !cc.dead.Load() {
		return cc, nil
	}
	c.dialing[i].Lock()
	defer c.dialing[i].Unlock()
	old := c.conns[i].Load()
	if old != nil && !old.dead.Load() {
		return old, nil // another call redialed the slot meanwhile
	}
	nc, err := c.cfg.Dial(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.cfg.Addr, err)
	}
	if old != nil {
		c.reconnects.Add(1) // a dead slot's redial, not pool warm-up
	}
	cc := newClientConn(nc, c.cfg.MaxPayload, c.cfg.RequestTimeout)
	c.conns[i].Store(cc)
	if c.closed.Load() {
		cc.fail(ErrClientClosed) // Close ran during the dial and may have missed cc
		return nil, ErrClientClosed
	}
	return cc, nil
}

// Reconnects reports how many dead pooled connections were redialed.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// WritePrometheus writes the client's own metrics in Prometheus text
// exposition, under the mccuckoo_client_ prefix.
func (c *Client) WritePrometheus(w io.Writer) error {
	p := &serverPromWriter{w: w}
	p.simple("mccuckoo_client_reconnects_total", "Pooled connections redialed after dying.", "counter", c.reconnects.Load())
	return p.err
}

// doCtx performs one request, traced when tc is valid (the zero context
// sends an untraced frame). An OK payload is returned in w.resp, which the
// caller decodes before it releases w.
func (c *Client) doCtx(tc trace.Context, op byte, payload []byte) (w *waiter, err error) {
	cc, err := c.conn()
	if err != nil {
		return nil, err
	}
	if w, err = cc.roundTrip(op, payload, tc); err != nil || w.status == StatusOK {
		return w, err
	}
	if w.status == StatusErr {
		err = &ServerError{Msg: string(w.resp)}
	} else {
		err = protoErrf("unknown response status %d", w.status)
	}
	w.release()
	return nil, err
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	w, err := c.doCtx(trace.Context{}, OpPing, nil)
	if err == nil {
		w.release()
	}
	return err
}

// Get looks up key.
func (c *Client) Get(key uint64) (value uint64, found bool, err error) {
	return c.GetCtx(trace.Context{}, key)
}

// GetCtx is Get carrying a trace context.
func (c *Client) GetCtx(tc trace.Context, key uint64) (value uint64, found bool, err error) {
	w, err := c.doCtx(tc, OpGet, appendU64(make([]byte, 0, 8), key))
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
	return c.PutCtx(trace.Context{}, key, value)
}

// PutCtx is Put carrying a trace context.
func (c *Client) PutCtx(tc trace.Context, key, value uint64) (mccuckoo.InsertResult, error) {
	w, err := c.doCtx(tc, OpPut, appendU64(appendU64(make([]byte, 0, 16), key), value))
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
	return c.DelCtx(trace.Context{}, key)
}

// DelCtx is Del carrying a trace context.
func (c *Client) DelCtx(tc trace.Context, key uint64) (bool, error) {
	w, err := c.doCtx(tc, OpDel, appendU64(make([]byte, 0, 8), key))
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
	if w, err = c.doCtx(trace.Context{}, OpBatch, p); err != nil {
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
	w, err := c.doCtx(trace.Context{}, OpStats, nil)
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

// VGet fetches key's replication state: missing, live (value and last-write
// sequence number), or tombstone (deletion sequence number). The server
// must run a *Replicated store.
func (c *Client) VGet(key uint64) (state byte, value, seq uint64, err error) {
	return c.VGetCtx(trace.Context{}, key)
}

// VGetCtx is VGet carrying a trace context.
func (c *Client) VGetCtx(tc trace.Context, key uint64) (state byte, value, seq uint64, err error) {
	w, err := c.doCtx(tc, OpVGet, appendU64(make([]byte, 0, 8), key))
	if err != nil {
		return 0, 0, 0, err
	}
	defer w.release()
	cur := cursor{b: w.resp}
	state, value, seq = cur.u8(), cur.u64(), cur.u64()
	if !cur.ok() || state > VStateTomb {
		return 0, 0, 0, protoErrf("malformed vget response")
	}
	return state, value, seq, nil
}

// Replicate pushes sequence-numbered entries (a cluster write or a
// read-repair) and returns the per-entry apply statuses. head is the
// sender's high-water sequence number. The server must run a *Replicated
// store.
func (c *Client) Replicate(head uint64, ents []Entry) ([]byte, error) {
	return c.ReplicateCtx(trace.Context{}, head, ents)
}

// ReplicateCtx is Replicate carrying a trace context.
func (c *Client) ReplicateCtx(tc trace.Context, head uint64, ents []Entry) ([]byte, error) {
	p := AppendReplicatePayload(make([]byte, 0, replicateHeadLen+len(ents)*entrySize), head, ents)
	w, err := c.doCtx(tc, OpReplicate, p)
	if err != nil {
		return nil, err
	}
	defer w.release()
	cur := cursor{b: w.resp}
	n := int(cur.u32())
	if cur.bad || n != len(ents) || len(w.resp)-4 != n {
		return nil, protoErrf("malformed replicate response")
	}
	statuses := make([]byte, n)
	copy(statuses, w.resp[4:])
	for _, st := range statuses {
		if st > ApplyFailed {
			return nil, protoErrf("malformed replicate response")
		}
	}
	return statuses, nil
}

// DigestRange fetches the server's XOR digest over keys in [lo, hi] that
// the named requester co-owns with the server, plus the matched-key count;
// when the count is at most maxKeys the keys are enumerated. The server
// must run a *Replicated store.
func (c *Client) DigestRange(name string, lo, hi uint64, maxKeys int) (digest, count uint64, keys []DigestEntry, err error) {
	return c.DigestRangeCtx(trace.Context{}, name, lo, hi, maxKeys)
}

// DigestRangeCtx is DigestRange carrying a trace context.
func (c *Client) DigestRangeCtx(tc trace.Context, name string, lo, hi uint64, maxKeys int) (digest, count uint64, keys []DigestEntry, err error) {
	p := AppendDigestRequest(make([]byte, 0, 24+len(name)), lo, hi, maxKeys, name)
	w, err := c.doCtx(tc, OpDigest, p)
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

// maxIdleWaiters bounds the waiters a connection keeps for reuse. Steady
// traffic has a few calls in flight per connection; a deeper burst's extra
// waiters are dropped after use, so the burst leaves nothing parked.
const maxIdleWaiters = 16

// waiter is one request's place in its connection's queue. A nil signal on
// done hands it to the caller, which releases it once resp is decoded. A
// timed-out waiter stays queued until its late response; a failed one is dropped.
type waiter struct {
	cc       *clientConn
	op       byte
	id       uint64
	deadline time.Time
	timedOut bool // guarded by cc.mu while queued
	done     chan error
	status   byte
	resp     []byte
}

// release hands w back to its connection, resp under the keep rule.
func (w *waiter) release() {
	w.resp = keep.Slice(w.resp)
	select {
	case w.cc.free <- w:
	default:
	}
}

// clientConn is one pooled connection. A server answers a connection's
// requests in order (DESIGN.md §10), so requests are queued in wire order
// and readLoop hands each response to the oldest waiter. One timer, armed
// for the oldest pending deadline, times requests out.
//
//mcvet:lifecycle
type clientConn struct {
	nc      net.Conn
	dead    atomic.Bool
	timeout time.Duration
	timer   *time.Timer  // set once by newClientConn
	free    chan *waiter // idle waiters, buffered to maxIdleWaiters

	wmu sync.Mutex // serializes frame writes and so the queue order
	// wbuf is the request-frame encoding buffer, reused under the keep rule.
	//mcvet:guardedby wmu
	wbuf []byte

	mu sync.Mutex
	//mcvet:guardedby mu
	queue []*waiter // written requests not yet answered, oldest first
	//mcvet:guardedby mu
	nextID uint64
	//mcvet:guardedby mu
	armed bool // the timer is set for the oldest pending deadline
	//mcvet:guardedby mu
	failure error
}

func newClientConn(nc net.Conn, maxPayload int, timeout time.Duration) *clientConn {
	cc := &clientConn{nc: nc, timeout: timeout, free: make(chan *waiter, maxIdleWaiters), armed: true}
	cc.timer = time.AfterFunc(timeout, cc.expire)
	//mcvet:allow goroutinelifecycle readLoop's lifetime is the conn's: fail/Close closes nc and the blocked ReadFrame returns
	go cc.readLoop(maxPayload)
	return cc
}

// enqueue queues a waiter for the next request id unless the connection
// failed. The caller holds wmu, so queue order is wire order, and deadline
// order too.
func (cc *clientConn) enqueue(op byte) (*waiter, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.failure != nil {
		return nil, cc.failure
	}
	var w *waiter
	select {
	case w = <-cc.free:
	default:
		w = &waiter{cc: cc, done: make(chan error, 1)}
	}
	cc.nextID++
	w.op, w.id, w.deadline, w.timedOut = op, cc.nextID, time.Now().Add(cc.timeout), false
	cc.queue = append(cc.queue, w)
	if !cc.armed {
		cc.armed = true
		cc.timer.Reset(cc.timeout)
	}
	return w, nil
}

// expire times out each queued request whose deadline passed, alone, and
// rearms the timer for the oldest one left.
func (cc *clientConn) expire() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.armed = false
	now := time.Now()
	for _, w := range cc.queue {
		if d := w.deadline.Sub(now); d > 0 {
			cc.armed = true
			cc.timer.Reset(d)
			return
		}
		if !w.timedOut {
			w.timedOut = true
			w.done <- fmt.Errorf("wire: request %d (%s) timed out after %v", w.id, OpName(w.op), cc.timeout)
		}
	}
}

// dequeue pops the waiter a response to id answers: the oldest one, after
// dropping timed-out requests the server never answered. It returns nil if
// id answers none.
func (cc *clientConn) dequeue(id uint64) *waiter {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for len(cc.queue) > 0 {
		w := cc.queue[0]
		if w.id != id && !w.timedOut {
			return nil
		}
		if cc.queue = cc.queue[:copy(cc.queue, cc.queue[1:])]; w.id == id {
			return w
		}
	}
	return nil
}

// fail marks the connection dead and errors out every pending request.
func (cc *clientConn) fail(err error) {
	cc.dead.Store(true)
	cc.nc.Close()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.failure == nil {
		cc.failure = err
	}
	for _, w := range cc.queue {
		if !w.timedOut {
			w.done <- cc.failure
		}
	}
	cc.queue = nil
}

// readLoop hands each response to its waiter until the connection dies.
//
//mcvet:deadlined
func (cc *clientConn) readLoop(maxPayload int) {
	var buf []byte
	for {
		// The demux read deliberately has no deadline: it must outlive any
		// single request, and request timeouts live in the connection's
		// timer. Close/fail closing the conn is what unblocks it.
		//mcvet:allow deadlinearm demux read is unbounded by design; bounded by conn close, not a timer
		f, b, err := ReadFrame(cc.nc, maxPayload, buf)
		var w *waiter
		if err == nil && f.IsResponse() {
			w = cc.dequeue(f.ID)
		}
		if w == nil {
			if err == nil {
				err = fmt.Errorf("frame %d of type %#x answers no pending request", f.ID, f.Type)
			}
			cc.fail(fmt.Errorf("%w: %v", ErrConnFailed, err))
			return
		}
		if w.timedOut {
			w.release() // a late response
		} else {
			w.status, w.resp = f.Status(), append(w.resp[:0], f.Payload...) // a copy: f.Payload aliases b
			w.done <- nil
		}
		buf = keep.Slice(b)
	}
}

// roundTrip sends one request and waits for its response, its timeout or
// the connection's failure.
//
//mcvet:deadlined
func (cc *clientConn) roundTrip(op byte, payload []byte, tc trace.Context) (*waiter, error) {
	cc.wmu.Lock()
	w, err := cc.enqueue(op)
	if w != nil {
		cc.wbuf = AppendFrame(slices.Grow(cc.wbuf[:0], FrameOverhead+trace.ContextSize+len(payload)),
			Frame{Type: op, ID: w.id, Payload: payload, Trace: tc})
		// A failed deadline arm is a connection failure: without it a dead
		// peer could pin this write forever.
		if err = cc.nc.SetWriteDeadline(w.deadline); err == nil {
			_, err = cc.nc.Write(cc.wbuf)
		}
		cc.wbuf = keep.Slice(cc.wbuf)
	}
	cc.wmu.Unlock()
	if w == nil {
		return nil, err
	}
	if err != nil {
		cc.fail(fmt.Errorf("%w: write: %v", ErrConnFailed, err)) // signals w
	}
	if err := <-w.done; err != nil {
		return nil, err
	}
	return w, nil
}
