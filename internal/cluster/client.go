package cluster

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo/internal/hashutil"
	"mccuckoo/internal/keep"
	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/wire"
)

// ErrNoQuorum is wrapped by write errors when fewer than WriteQuorum
// replicas acknowledged. Some replicas may still have applied the write —
// a later read repairs the rest.
var ErrNoQuorum = errors.New("cluster: write quorum not reached")

// ErrAllReplicasFailed is wrapped by read errors when every consulted
// replica failed at the transport or server level. A read that reaches at
// least one replica succeeds (possibly returning not-found).
var ErrAllReplicasFailed = errors.New("cluster: all replicas failed")

// errBreakerOpen marks a replica skipped because its breaker was open: the
// peer failed enough consecutive requests that the client stops paying its
// timeout until a half-open probe succeeds.
var errBreakerOpen = errors.New("cluster: peer breaker open")

// errTableFull marks a push a replica answered with ApplyFailed: its table
// had no room. It is the replica's verdict, not a transport failure, so it
// does not count against the peer's breaker.
var errTableFull = errors.New("cluster: replica table full")

// Config configures a cluster Client. Nodes is required; every other field
// has a usable zero value.
type Config struct {
	// Nodes lists every node address in the cluster. All clients and all
	// nodes must be configured with the same set (order-insensitive), the
	// same Seed, and the same VNodes — placement is pure configuration.
	Nodes []string

	// Replicas is R, the copies kept of each key (default 2, capped at the
	// node count). The cluster tolerates R-1 node losses with zero failed
	// reads.
	Replicas int

	// WriteQuorum is W, the acknowledgements a write needs to succeed
	// (default 1, capped at Replicas). W=1 keeps writes available while a
	// node is down; the op-log catch-up and read-repair propagate the
	// copies the write could not deliver itself.
	WriteQuorum int

	// ReadFanout is how many replicas a read consults (default Replicas).
	// Consulting all R replicas makes every read a repair opportunity;
	// lowering it trades freshness detection for round trips.
	ReadFanout int

	// VNodes and Seed parameterize the ring (defaults DefaultVNodes, 0).
	VNodes int
	Seed   uint64

	// NodeID distinguishes this writer's sequence numbers from other
	// writers in the same millisecond (8 bits used).
	NodeID uint64

	// OpTimeout bounds every round trip to a replica (default 5s): it is
	// the wire deadline of each request a cluster call sends, in place of
	// Wire.RequestTimeout. A replica that has not answered by then, hung,
	// silent or still dialing, fails, and the failure counts against its
	// breaker. A call therefore waits at most OpTimeout, and the replicas
	// that answered in time still satisfy the quorum.
	OpTimeout time.Duration

	// BreakerFailures is how many consecutive transport failures trip a
	// peer's breaker open (default 5). While open, requests to the peer
	// are skipped immediately instead of waiting out their timeouts.
	BreakerFailures int

	// BreakerProbe is the base interval between half-open probes of an
	// open breaker (default 500ms), jittered ±50% from a stream seeded by
	// Seed and the peer address.
	BreakerProbe time.Duration

	// Wire is the per-node client template; Addr is overridden per node,
	// and RequestTimeout by OpTimeout. Wire.Dial is where the
	// fault-injection layer (internal/netchaos) interposes for chaos tests.
	Wire wire.ClientConfig

	// SeqSource overrides the write sequence-number source, for
	// deterministic tests. Sequence numbers must be strictly increasing
	// per client and below 1<<63: replicas reject larger ones as invalid.
	// The default is a hybrid clock (wall millis in the high bits, NodeID
	// below, a counter in the low bits). Its millis<<22 crosses 1<<63 in
	// September 2039, after which replicas would reject every write it
	// stamps; the bit layout stays as is because clients on different
	// layouts would no longer order each other's writes.
	SeqSource func() uint64

	// Trace, when non-nil, records client-side spans: one root per Get/
	// Put/Del (head-sampled by the recorder) with a replica_rtt child per
	// fan-out round trip, and the sampled context rides the wire so servers
	// continue the same trace. Nil disables tracing at zero cost.
	Trace *trace.Recorder
}

// Client fans operations across a cluster of mcserved nodes. Writes are
// pushed to all R replicas of the key with a write quorum; reads consult
// the replicas in ring order, answer from the newest copy, and push that
// copy back to any stale replica (read-repair). All methods are safe for
// concurrent use.
type Client struct {
	cfg  Config
	ring *Ring
	// peers is fixed at construction (one pooled wire client per node) and
	// only read afterwards, so it needs no lock.
	peers map[string]*peer

	lastSeq atomic.Uint64
	seqSrc  func() uint64
	tr      *trace.Recorder
	fans    chan *fan // idle fans, buffered to maxIdleFans

	reads          atomic.Int64
	readErrors     atomic.Int64
	repairs        atomic.Int64
	writes         atomic.Int64
	quorumFailures atomic.Int64
	degradedReads  atomic.Int64

	// ackSkew is the quorum ack-latency histogram: for every multi-replica
	// push, each durable ack observes its delay (ns) behind the fan-out's
	// first ack — 0 for the winner. Under W>1 this distribution IS the
	// consistency window: a read landing inside it can see replicas
	// disagree.
	ackSkew telemetry.Hist
}

// peer is one node's wire client plus its health tracking.
type peer struct {
	addr string
	wc   *wire.Client
	br   *breaker
	// hash identifies the peer in trace spans (trace.PeerHash of the addr).
	hash  uint32
	trips atomic.Int64
}

// New validates cfg, builds the ring, and dials nothing (wire clients
// connect lazily).
func New(cfg Config) (*Client, error) {
	ring, err := NewRing(cfg.Nodes, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(ring.Nodes()) {
		cfg.Replicas = len(ring.Nodes())
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = 1
	}
	if cfg.WriteQuorum > cfg.Replicas {
		return nil, fmt.Errorf("cluster: write quorum %d exceeds replica count %d", cfg.WriteQuorum, cfg.Replicas)
	}
	if cfg.ReadFanout <= 0 || cfg.ReadFanout > cfg.Replicas {
		cfg.ReadFanout = cfg.Replicas
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = 5
	}
	if cfg.BreakerProbe <= 0 {
		cfg.BreakerProbe = 500 * time.Millisecond
	}
	c := &Client{cfg: cfg, ring: ring, peers: make(map[string]*peer, len(ring.Nodes())), fans: make(chan *fan, maxIdleFans)}
	for _, addr := range ring.Nodes() {
		wcfg := cfg.Wire
		wcfg.Addr, wcfg.RequestTimeout = addr, cfg.OpTimeout
		wc, err := wire.Dial(wcfg)
		if err != nil {
			return nil, err
		}
		c.peers[addr] = &peer{
			addr: addr,
			wc:   wc,
			br:   newBreaker(cfg.BreakerFailures, cfg.BreakerProbe, breakerSeed(cfg.Seed, addr)),
			hash: trace.PeerHash(addr),
		}
	}
	c.tr = cfg.Trace
	c.seqSrc = cfg.SeqSource
	if c.seqSrc == nil {
		id := (cfg.NodeID & 0xff) << 14
		c.seqSrc = func() uint64 {
			return uint64(time.Now().UnixMilli())<<22 | id
		}
	}
	return c, nil
}

// Close closes every per-node wire client.
func (c *Client) Close() error {
	for _, p := range c.peers {
		p.wc.Close()
	}
	return nil
}

// Ring returns the client's placement ring.
func (c *Client) Ring() *Ring { return c.ring }

// nextSeq issues a strictly increasing sequence number: the hybrid-clock
// candidate, bumped past the previously issued one when the clock has not
// advanced (or ran backwards).
func (c *Client) nextSeq() uint64 {
	for {
		prev := c.lastSeq.Load()
		cand := c.seqSrc()
		if cand <= prev {
			cand = prev + 1
		}
		if c.lastSeq.CompareAndSwap(prev, cand) {
			return cand
		}
	}
}

// Put writes key/value to all replicas, succeeding once WriteQuorum
// replicas acknowledged.
func (c *Client) Put(key, value uint64) error {
	return c.write(wire.Entry{Op: wire.OpPut, Key: key, Value: value})
}

// Del deletes key on all replicas (leaving a tombstone), succeeding once
// WriteQuorum replicas acknowledged.
func (c *Client) Del(key uint64) error {
	return c.write(wire.Entry{Op: wire.OpDel, Key: key})
}

func (c *Client) write(e wire.Entry) error {
	c.writes.Add(1)
	e.Seq = c.nextSeq()
	root := c.tr.Start(c.tr.Begin(), trace.KindClientOp)
	root.Op, root.Key = e.Op, hashutil.Mix64(e.Key)
	f := c.newFan(wire.OpReplicate)
	defer f.unref()
	ents := [1]wire.Entry{e}
	f.payload = wire.AppendReplicatePayload(f.payload, e.Seq, ents[:])
	f.toReplicas(e.Key, c.cfg.Replicas)
	f.skew = len(f.legs) > 1
	acks := c.fanOut(f, c.cfg.WriteQuorum, &root)
	root.Finish()
	if acks >= c.cfg.WriteQuorum {
		return nil
	}
	c.quorumFailures.Add(1)
	return fmt.Errorf("%w (%d/%d acks for key %d): %w", ErrNoQuorum, acks, c.cfg.WriteQuorum, e.Key, f.errs())
}

// Get reads key: all consulted replicas are queried at once, the newest
// copy wins, and any stale (or missing) replica that answered is repaired
// with the winning copy before Get returns. Peers with an open breaker are
// skipped and peers silent at OpTimeout fail; a read that succeeds without
// hearing from every consulted replica counts as degraded. Get fails only
// when every consulted replica failed.
func (c *Client) Get(key uint64) (value uint64, found bool, err error) {
	c.reads.Add(1)
	root := c.tr.Start(c.tr.Begin(), trace.KindClientOp)
	root.Op, root.Key = wire.OpGet, hashutil.Mix64(key)
	defer root.Finish()
	f := c.newFan(wire.OpVGet)
	defer f.unref()
	f.payload = wire.AppendVGetRequest(f.payload, key)
	f.toReplicas(key, c.cfg.ReadFanout)
	c.fanOut(f, 0, &root)
	var win *leg
	answered := 0
	for i := range f.legs {
		l := &f.legs[i]
		if l.err != nil {
			c.readErrors.Add(1)
			continue
		}
		answered++
		if win == nil || l.seq > win.seq {
			win = l
		}
	}
	if win == nil {
		return 0, false, fmt.Errorf("%w (key %d): %w", ErrAllReplicasFailed, key, f.errs())
	}
	if answered < len(f.legs) {
		c.degradedReads.Add(1)
	}
	c.repair(key, f, win, &root)
	if win.state == wire.VStateLive {
		return win.value, true, nil
	}
	return 0, false, nil
}

// repair pushes the winning copy to every replica that answered read with
// an older one. Repairs are synchronous — the read returns only after the
// disagreeing replicas converged — and best-effort: a failed repair is not
// a read failure. The repair pushes trace as children of the read's root
// span, so a trace shows which read triggered which repair.
func (c *Client) repair(key uint64, read *fan, win *leg, root *trace.Span) {
	if win.state == wire.VStateMissing {
		return // nobody has ever seen the key; nothing to propagate
	}
	ents := [1]wire.Entry{{Seq: win.seq, Op: wire.OpPut, Key: key, Value: win.value}}
	if win.state == wire.VStateTomb {
		ents[0].Op, ents[0].Value = wire.OpDel, 0
	}
	var f *fan
	for i := range read.legs {
		l := &read.legs[i]
		if l.err != nil || (l.seq >= win.seq && l.state != wire.VStateMissing) {
			continue
		}
		if f == nil {
			f = c.newFan(wire.OpReplicate)
			f.payload = wire.AppendReplicatePayload(f.payload, win.seq, ents[:])
		}
		f.add(l.p, 0, 1)
	}
	if f == nil {
		return
	}
	defer f.unref()
	c.repairs.Add(int64(len(f.legs)))
	f.skew = len(f.legs) > 1
	c.fanOut(f, 0, root)
}

// PutBatch writes every pair, sending each node one REPLICATE push of the
// entries it replicates, and waits for every push. It fails if any key
// missed its write quorum, naming the first such key and joining every
// per-node error; all other keys are still written. Batch pushes are
// untraced: one frame carries many keys, so no single-request span tree
// fits — the per-op path (Put/Del/Get) is the traced one.
func (c *Client) PutBatch(keys, values []uint64) error {
	if len(keys) != len(values) {
		panic("cluster: PutBatch called with mismatched key/value lengths")
	}
	c.writes.Add(int64(len(keys)))
	ents := make([]wire.Entry, len(keys))
	idx := make(map[string][]int) // per node, the entries it replicates
	var owners []string
	for i, k := range keys {
		ents[i] = wire.Entry{Seq: c.nextSeq(), Op: wire.OpPut, Key: k, Value: values[i]}
		owners = c.ring.Replicas(k, c.cfg.Replicas, owners[:0])
		for _, addr := range owners {
			idx[addr] = append(idx[addr], i)
		}
	}
	f := c.newFan(wire.OpReplicate)
	defer f.unref()
	f.batch = true
	var batch []wire.Entry
	for _, addr := range c.ring.Nodes() {
		if len(idx[addr]) == 0 {
			continue
		}
		batch = batch[:0]
		for _, i := range idx[addr] {
			batch = append(batch, ents[i])
		}
		lo := len(f.payload)
		f.payload = wire.AppendReplicatePayload(f.payload, batch[len(batch)-1].Seq, batch)
		f.add(c.peers[addr], lo, len(batch))
	}
	c.fanOut(f, 0, &trace.Span{})
	acks := make([]int, len(ents))
	errs := []error{f.errs()}
	for i := range f.legs {
		l := &f.legs[i]
		for j, st := range l.statuses {
			if st == wire.ApplyFailed {
				errs = append(errs, fmt.Errorf("%s: %w (key %d)", l.p.addr, errTableFull, ents[idx[l.p.addr][j]].Key))
				continue
			}
			acks[idx[l.p.addr][j]]++
		}
	}
	for i, n := range acks {
		if n < c.cfg.WriteQuorum {
			c.quorumFailures.Add(1)
			return fmt.Errorf("%w (%d/%d acks for key %d): %w", ErrNoQuorum, n, c.cfg.WriteQuorum, ents[i].Key, errors.Join(errs...))
		}
	}
	return nil
}

// maxIdleFans bounds the fans a client keeps for reuse: steady traffic has
// a few calls in flight, and a burst leaves its extra fans to the GC.
const maxIdleFans = 16

// fan is one cluster call's fan-out: a leg per replica, added by the caller,
// then sent and awaited by fanOut. Each leg completes into the fan on the
// goroutine that ends its round trip: the peer connection's reader, its
// timer at OpTimeout, or a failure path. A pooled fan goes back to the pool
// only once the caller and every leg are done with it.
type fan struct {
	c    *Client
	done chan struct{} // buffered 1: the leg that satisfies the waiting caller wakes it
	refs atomic.Int32  // the caller, plus each leg in flight

	// Written by the caller before it waits; legs read them after.
	op      byte
	batch   bool // legs keep their apply statuses for per-entry accounting
	skew    bool // durable acks feed the ack-skew histogram
	need    int
	sent    int
	payload []byte // every leg's request (keep rule)
	legs    []leg  // all added before any is sent, so a sent leg never moves

	mu sync.Mutex
	//mcvet:guardedby mu
	answered int
	//mcvet:guardedby mu
	acks int
	//mcvet:guardedby mu
	waiting bool
	//mcvet:guardedby mu
	stopped bool // the caller took its answers; later legs leave their outcome unwritten
	//mcvet:guardedby mu
	firstAck int64
}

// leg is one replica's round trip in a fan. It holds no reference to its
// caller's entries or payload: its request is f.payload[lo:hi], which the
// peer connection copies when the leg is sent.
type leg struct {
	f      *fan
	p      *peer
	lo, hi int
	n      int // entries pushed
	span   trace.Span

	// The outcome, written before the caller stops waiting and read by the
	// caller after. A leg skipped by its breaker fails at once.
	done     bool
	err      error
	state    byte // a VGET answer
	value    uint64
	seq      uint64
	statuses []byte // a batch push's apply statuses
}

// newFan takes a fan for one call of op from the pool.
func (c *Client) newFan(op byte) *fan {
	var f *fan
	select {
	case f = <-c.fans:
	default:
		f = &fan{c: c, done: make(chan struct{}, 1)}
	}
	f.op = op
	f.refs.Store(1)
	return f
}

// add adds a leg to p that sends f.payload[lo:], n entries.
func (f *fan) add(p *peer, lo, n int) {
	f.legs = append(f.legs, leg{f: f, p: p, lo: lo, hi: len(f.payload), n: n})
}

// toReplicas adds a leg to each of key's first n replicas, in ring order,
// each sending the whole payload.
func (f *fan) toReplicas(key uint64, n int) {
	var buf [8]string
	for _, addr := range f.c.ring.Replicas(key, n, buf[:0]) {
		f.add(f.c.peers[addr], 0, 1)
	}
}

// fanOut sends every leg of f from the caller's goroutine, skipping peers
// whose breaker is open, and waits until need legs succeeded or every sent
// leg answered (need <= 0 waits for all); it returns the successes by then.
// A send only buffers the leg's request for its peer connection's writer,
// so a stalled peer delays none of the legs after it. fanOut needs no
// goroutine and no timer: OpTimeout is each request's wire deadline, so a
// leg that misses it fails and counts against its breaker.
// Legs still out when fanOut returns complete into f later and feed their
// breaker, their replica_rtt span and the ack-skew histogram all the same.
func (c *Client) fanOut(f *fan, need int, root *trace.Span) int {
	f.need = need
	for i := range f.legs {
		l := &f.legs[i]
		if !l.p.br.allow() {
			l.done, l.err = true, errBreakerOpen
			continue
		}
		l.span = root.StartChild(trace.KindReplicaRTT)
		l.span.Op, l.span.Peer = f.op, l.p.hash
		l.p.trips.Add(1)
		f.sent++
		f.refs.Add(1)
		l.p.wc.Send(l.span.Context(), f.op, f.payload[l.lo:l.hi], l)
	}
	f.mu.Lock()
	wait := !f.satisfied()
	f.waiting, f.stopped = wait, !wait
	f.mu.Unlock()
	if wait {
		<-f.done
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acks
}

// satisfied reports whether the caller has the answers it waits for.
//
//mcvet:locked
func (f *fan) satisfied() bool {
	return f.answered == f.sent || (f.need > 0 && f.acks >= f.need)
}

// Done completes the leg with its round trip's outcome (a wire.Sink).
func (l *leg) Done(resp []byte, err error) {
	f := l.f
	var state byte
	var value, seq uint64
	var statuses []byte
	if err == nil && f.op == wire.OpVGet {
		state, value, seq, err = wire.ParseVGetResponse(resp)
	} else if err == nil {
		statuses, err = wire.ParseReplicateResponse(resp, l.n)
	}
	// The breaker counts transport outcomes only.
	if err != nil {
		l.p.br.onFailure()
	} else {
		l.p.br.onSuccess()
	}
	l.span.Finish()
	if err == nil && !f.batch && slices.Contains(statuses, wire.ApplyFailed) {
		err = errTableFull
	}
	f.mu.Lock()
	if !f.stopped {
		l.done, l.err, l.state, l.value, l.seq = true, err, state, value, seq
		if f.batch {
			l.statuses = append(l.statuses, statuses...) // a copy: statuses aliases resp
		}
		f.answered++
		if err == nil {
			f.acks++
		}
		if f.waiting && f.satisfied() {
			f.waiting, f.stopped = false, true
			f.done <- struct{}{}
		}
	}
	if err == nil && f.skew {
		// Each durable ack's delay behind the push's first, observed also
		// after the caller returned: that tail is the consistency window.
		now := time.Now().UnixNano()
		if f.firstAck == 0 {
			f.firstAck = now
		}
		f.c.ackSkew.Observe(now - f.firstAck)
	}
	f.mu.Unlock()
	f.unref()
}

// errs joins the errors of f's failed legs, each naming its peer. Only a
// failed call builds it.
func (f *fan) errs() error {
	var errs []error
	for i := range f.legs {
		if l := &f.legs[i]; l.done && l.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", l.p.addr, l.err))
		}
	}
	return errors.Join(errs...)
}

// unref drops one reference to f. The last one pools f, keeping nothing
// beyond the keep rule.
func (f *fan) unref() {
	if f.refs.Add(-1) != 0 {
		return
	}
	clear(f.legs)
	f.legs, f.payload = keep.Slice(f.legs), keep.Slice(f.payload)
	f.op, f.batch, f.skew, f.need, f.sent = 0, false, false, 0, 0
	f.mu.Lock()
	f.answered, f.acks, f.waiting, f.stopped, f.firstAck = 0, 0, false, false, 0
	f.mu.Unlock()
	select {
	case f.c.fans <- f:
	default:
	}
}

// Metrics is a snapshot of the client's counters.
type Metrics struct {
	Reads          int64
	ReadErrors     int64
	Repairs        int64
	Writes         int64
	QuorumFailures int64
	// DegradedReads counts reads that succeeded without hearing from every
	// consulted replica (peer skipped by its breaker, failed, or silent at
	// the deadline).
	DegradedReads int64
	// PeerTrips counts round trips per node address.
	PeerTrips map[string]int64
	// BreakerOpen reports which peers' breakers are currently rejecting.
	BreakerOpen map[string]bool
	// BreakerTrips counts closed→open transitions per peer.
	BreakerTrips map[string]int64
	// BreakerSkips counts requests skipped by an open breaker per peer.
	BreakerSkips map[string]int64
	// AckSkew is the quorum ack-latency histogram (nanoseconds): each
	// durable ack of a multi-replica push observed relative to that push's
	// first ack. Its spread is the staleness window W>1 readers can see.
	AckSkew telemetry.HistSnapshot
}

// MetricsSnapshot returns the current counter values.
func (c *Client) MetricsSnapshot() Metrics {
	m := Metrics{
		Reads:          c.reads.Load(),
		ReadErrors:     c.readErrors.Load(),
		Repairs:        c.repairs.Load(),
		Writes:         c.writes.Load(),
		QuorumFailures: c.quorumFailures.Load(),
		DegradedReads:  c.degradedReads.Load(),
		PeerTrips:      make(map[string]int64, len(c.peers)),
		BreakerOpen:    make(map[string]bool, len(c.peers)),
		BreakerTrips:   make(map[string]int64, len(c.peers)),
		BreakerSkips:   make(map[string]int64, len(c.peers)),
		AckSkew:        c.ackSkew.Snapshot(),
	}
	for addr, p := range c.peers {
		m.PeerTrips[addr] = p.trips.Load()
		m.BreakerOpen[addr] = p.br.isOpen()
		m.BreakerTrips[addr] = p.br.trips.Load()
		m.BreakerSkips[addr] = p.br.skips.Load()
	}
	return m
}

// WritePrometheus writes the cluster client's metrics in Prometheus text
// exposition under the mccuckoo_cluster_ prefix.
func (c *Client) WritePrometheus(w io.Writer) error {
	m := c.MetricsSnapshot()
	p := telemetry.NewPromWriter(w)
	p.Simple("mccuckoo_cluster_reads_total", "Cluster reads issued.", "counter", m.Reads)
	p.Simple("mccuckoo_cluster_read_errors_total", "Per-replica read failures.", "counter", m.ReadErrors)
	p.Simple("mccuckoo_cluster_read_repairs_total", "Stale replicas repaired by reads.", "counter", m.Repairs)
	p.Simple("mccuckoo_cluster_writes_total", "Cluster writes issued.", "counter", m.Writes)
	p.Simple("mccuckoo_cluster_quorum_failures_total", "Writes that missed their quorum.", "counter", m.QuorumFailures)
	p.Simple("mccuckoo_cluster_degraded_reads_total", "Reads that succeeded without a full replica fan-out.", "counter", m.DegradedReads)
	open := make(map[string]int64, len(m.BreakerOpen))
	for addr, o := range m.BreakerOpen {
		if o {
			open[addr] = 1
		}
	}
	for _, s := range []struct {
		name, help, typ string
		v               map[string]int64
	}{
		{"mccuckoo_cluster_peer_trips_total", "Round trips per peer.", "counter", m.PeerTrips},
		{"mccuckoo_cluster_breaker_open", "1 while the peer's breaker rejects requests.", "gauge", open},
		{"mccuckoo_cluster_breaker_trips_total", "Breaker closed-to-open transitions per peer.", "counter", m.BreakerTrips},
		{"mccuckoo_cluster_breaker_skips_total", "Requests skipped by an open breaker per peer.", "counter", m.BreakerSkips},
	} {
		p.Header(s.name, s.help, s.typ)
		for _, addr := range c.ring.Nodes() {
			p.Int(s.name, telemetry.Label("peer", addr), s.v[addr])
		}
	}
	p.Header("mccuckoo_cluster_ack_skew_seconds",
		"Per-replica durable-ack delay behind a multi-replica push's first ack: the W>1 consistency window.", "histogram")
	p.Hist("mccuckoo_cluster_ack_skew_seconds", "", m.AckSkew, 1e9)
	return p.Err()
}
