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
// concurrent use: in-flight requests are matched to responses by id, so any
// number of goroutines can share one Client (and one connection).
type Client struct {
	cfg        ClientConfig
	nextID     atomic.Uint64
	rr         atomic.Uint64
	closed     atomic.Bool
	reconnects atomic.Int64

	mu sync.Mutex
	//mcvet:guardedby mu
	conns []*clientConn
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
	return &Client{cfg: cfg, conns: make([]*clientConn, cfg.Conns)}, nil
}

// Close closes every pooled connection. In-flight requests fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cc := range c.conns {
		if cc != nil {
			cc.fail(ErrClientClosed)
			c.conns[i] = nil
		}
	}
	return nil
}

// conn returns a live pooled connection, dialing a replacement for a dead
// slot.
func (c *Client) conn() (*clientConn, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	// Reduce before converting: int(counter) goes negative once the counter
	// passes the int range.
	slot := int(c.rr.Add(1) % uint64(c.cfg.Conns))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	cc := c.conns[slot]
	if cc != nil && !cc.dead.Load() {
		return cc, nil
	}
	dial := c.cfg.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.cfg.Addr, err)
	}
	if cc != nil {
		// The slot held a connection that died: this dial is a reconnect,
		// not pool warm-up.
		c.reconnects.Add(1)
	}
	cc = newClientConn(nc, c.cfg.MaxPayload)
	c.conns[slot] = cc
	return cc, nil
}

// Reconnects reports how many times a pooled connection died and was
// redialed.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// WritePrometheus writes the client's own metrics in Prometheus text
// exposition, under the mccuckoo_client_ prefix.
func (c *Client) WritePrometheus(w io.Writer) error {
	p := &serverPromWriter{w: w}
	p.simple("mccuckoo_client_reconnects_total", "Pooled connections redialed after dying.", "counter", c.reconnects.Load())
	return p.err
}

// do performs one untraced request and returns the OK payload.
func (c *Client) do(op byte, payload []byte) ([]byte, error) {
	return c.doCtx(trace.Context{}, op, payload)
}

// doCtx is do carrying a trace context: when tc is valid the request frame
// is flagged and prefixed so the server can continue the trace. The zero
// context produces a byte-identical untraced frame.
func (c *Client) doCtx(tc trace.Context, op byte, payload []byte) ([]byte, error) {
	cc, err := c.conn()
	if err != nil {
		return nil, err
	}
	status, resp, err := cc.roundTrip(c.nextID.Add(1), op, payload, tc, c.cfg.RequestTimeout)
	if err != nil {
		return nil, err
	}
	switch status {
	case StatusOK:
		return resp, nil
	case StatusErr:
		return nil, &ServerError{Msg: string(resp)}
	default:
		return nil, protoErrf("unknown response status %d", status)
	}
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	_, err := c.do(OpPing, nil)
	return err
}

// Get looks up key.
func (c *Client) Get(key uint64) (value uint64, found bool, err error) {
	return c.GetCtx(trace.Context{}, key)
}

// GetCtx is Get carrying a trace context.
func (c *Client) GetCtx(tc trace.Context, key uint64) (value uint64, found bool, err error) {
	resp, err := c.doCtx(tc, OpGet, appendU64(make([]byte, 0, 8), key))
	if err != nil {
		return 0, false, err
	}
	cur := cursor{b: resp}
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
	p := appendU64(make([]byte, 0, 16), key)
	p = appendU64(p, value)
	resp, err := c.doCtx(tc, OpPut, p)
	if err != nil {
		return mccuckoo.InsertResult{}, err
	}
	cur := cursor{b: resp}
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
	resp, err := c.doCtx(tc, OpDel, appendU64(make([]byte, 0, 8), key))
	if err != nil {
		return false, err
	}
	cur := cursor{b: resp}
	removed := cur.u8()
	if !cur.ok() {
		return false, protoErrf("malformed del response")
	}
	return removed != 0, nil
}

// batchReq builds a BATCH request payload header.
func batchReq(sub byte, n, recordSize int) []byte {
	p := make([]byte, 0, 5+n*recordSize)
	p = appendU8(p, sub)
	p = appendU32(p, uint32(n))
	return p
}

// checkBatchResp validates a BATCH response's echo of sub-op and count and
// returns the record bytes.
func checkBatchResp(resp []byte, sub byte, n int) (cursor, error) {
	c := cursor{b: resp}
	gotSub, gotN := c.u8(), c.u32()
	if c.bad || gotSub != sub || int(gotN) != n {
		return cursor{}, protoErrf("malformed batch response header")
	}
	return c, nil
}

// GetBatch looks up many keys in one round trip.
func (c *Client) GetBatch(keys []uint64) (values []uint64, found []bool, err error) {
	p := batchReq(OpGet, len(keys), 8)
	for _, k := range keys {
		p = appendU64(p, k)
	}
	resp, err := c.do(OpBatch, p)
	if err != nil {
		return nil, nil, err
	}
	cur, err := checkBatchResp(resp, OpGet, len(keys))
	if err != nil {
		return nil, nil, err
	}
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
	p := batchReq(OpPut, len(keys), 16)
	for i, k := range keys {
		p = appendU64(p, k)
		p = appendU64(p, values[i])
	}
	resp, err := c.do(OpBatch, p)
	if err != nil {
		return nil, err
	}
	cur, err := checkBatchResp(resp, OpPut, len(keys))
	if err != nil {
		return nil, err
	}
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
	p := batchReq(OpDel, len(keys), 8)
	for _, k := range keys {
		p = appendU64(p, k)
	}
	resp, err := c.do(OpBatch, p)
	if err != nil {
		return nil, err
	}
	cur, err := checkBatchResp(resp, OpDel, len(keys))
	if err != nil {
		return nil, err
	}
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
	resp, err := c.do(OpStats, nil)
	if err != nil {
		return TableStats{}, err
	}
	var st TableStats
	if err := json.Unmarshal(resp, &st); err != nil {
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
	resp, err := c.doCtx(tc, OpVGet, appendU64(make([]byte, 0, 8), key))
	if err != nil {
		return 0, 0, 0, err
	}
	cur := cursor{b: resp}
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
	resp, err := c.doCtx(tc, OpReplicate, p)
	if err != nil {
		return nil, err
	}
	cur := cursor{b: resp}
	n := int(cur.u32())
	if cur.bad || n != len(ents) || len(resp)-4 != n {
		return nil, protoErrf("malformed replicate response")
	}
	statuses := make([]byte, n)
	copy(statuses, resp[4:])
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
	resp, err := c.doCtx(tc, OpDigest, p)
	if err != nil {
		return 0, 0, nil, err
	}
	digest, count, keys, ok := ParseDigestResponse(resp)
	if !ok {
		return 0, 0, nil, protoErrf("malformed digest response")
	}
	return digest, count, keys, nil
}

// result is one demultiplexed response.
type result struct {
	status  byte
	payload []byte
	err     error
}

// clientConn is one pooled connection. A single readLoop goroutine
// demultiplexes responses to waiting callers by request id; writes are
// serialized by wmu.
//
//mcvet:lifecycle
type clientConn struct {
	nc   net.Conn
	dead atomic.Bool

	wmu sync.Mutex // serializes frame writes
	// wbuf is the request-frame encoding buffer, reused under the keep rule.
	//mcvet:guardedby wmu
	wbuf []byte

	mu sync.Mutex
	//mcvet:guardedby mu
	pending map[uint64]chan result
	//mcvet:guardedby mu
	failure error
}

func newClientConn(nc net.Conn, maxPayload int) *clientConn {
	cc := &clientConn{nc: nc, pending: make(map[uint64]chan result)}
	//mcvet:allow goroutinelifecycle readLoop's lifetime is the conn's: fail/Close closes nc and the blocked ReadFrame returns
	go cc.readLoop(maxPayload)
	return cc
}

// register adds a waiter unless the connection already failed.
func (cc *clientConn) register(id uint64, ch chan result) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.failure != nil {
		return cc.failure
	}
	cc.pending[id] = ch
	return nil
}

func (cc *clientConn) unregister(id uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	delete(cc.pending, id)
}

// deliver hands a response to its waiter; a response nobody waits for
// (timed-out request) is dropped.
func (cc *clientConn) deliver(id uint64, r result) {
	cc.mu.Lock()
	ch, ok := cc.pending[id]
	if ok {
		delete(cc.pending, id)
	}
	cc.mu.Unlock()
	if ok {
		ch <- r // buffered; never blocks
	}
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
	for id, ch := range cc.pending {
		delete(cc.pending, id)
		ch <- result{err: cc.failure}
	}
}

// readLoop demultiplexes responses to their waiters until the connection
// dies.
//
//mcvet:deadlined
func (cc *clientConn) readLoop(maxPayload int) {
	var buf []byte
	for {
		// The demux read deliberately has no deadline: it must outlive any
		// single request, and per-request timeouts live in roundTrip.
		// Close/fail closing the conn is what unblocks it.
		//mcvet:allow deadlinearm demux read is unbounded by design; bounded by conn close, not a timer
		f, b, err := ReadFrame(cc.nc, maxPayload, buf)
		if err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrConnFailed, err))
			return
		}
		if !f.IsResponse() {
			cc.fail(fmt.Errorf("%w: server sent a request frame", ErrConnFailed))
			return
		}
		// The payload aliases b; the waiter owns its copy, so b obeys the
		// keep rule before the next read parks it.
		cc.deliver(f.ID, result{status: f.Status(), payload: append([]byte(nil), f.Payload...)})
		buf = Keep(b)
	}
}

// roundTrip sends one request and waits for its response or the timeout.
//
//mcvet:deadlined
func (cc *clientConn) roundTrip(id uint64, op byte, payload []byte, tc trace.Context, timeout time.Duration) (byte, []byte, error) {
	ch := make(chan result, 1)
	if err := cc.register(id, ch); err != nil {
		return 0, nil, err
	}
	cc.wmu.Lock()
	cc.wbuf = AppendFrame(slices.Grow(cc.wbuf[:0], FrameOverhead+trace.ContextSize+len(payload)),
		Frame{Type: op, ID: id, Payload: payload, Trace: tc})
	// A failed deadline arm is a connection failure: without it a dead
	// peer could pin this write forever.
	err := cc.nc.SetWriteDeadline(time.Now().Add(timeout))
	if err == nil {
		_, err = cc.nc.Write(cc.wbuf)
	}
	cc.wbuf = Keep(cc.wbuf)
	cc.wmu.Unlock()
	if err != nil {
		cc.unregister(id)
		err = fmt.Errorf("%w: write: %v", ErrConnFailed, err)
		cc.fail(err)
		return 0, nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.status, r.payload, r.err
	case <-timer.C:
		cc.unregister(id)
		return 0, nil, fmt.Errorf("wire: request %d (%s) timed out after %v", id, OpName(op), timeout)
	}
}
