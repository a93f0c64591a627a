package cluster

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo/internal/hashutil"
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

// errFanDeadline marks replicas that had not answered when the per-op
// fan-out deadline expired; their round trips keep running in the
// background and still feed the breakers.
var errFanDeadline = errors.New("cluster: fan-out deadline expired")

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

	// OpTimeout bounds one fan-out (a write push, a read's VGET round, a
	// repair push) end to end (default 5s). A hung peer costs at most this
	// long; replicas that answered within the deadline still satisfy the
	// quorum, and the laggard's reply feeds its breaker when it arrives.
	OpTimeout time.Duration

	// BreakerFailures is how many consecutive transport failures trip a
	// peer's breaker open (default 5). While open, requests to the peer
	// are skipped immediately instead of waiting out their timeouts.
	BreakerFailures int

	// BreakerProbe is the base interval between half-open probes of an
	// open breaker (default 500ms), jittered ±50% from a stream seeded by
	// Seed and the peer address.
	BreakerProbe time.Duration

	// Wire is the per-node client template; Addr is overridden per node.
	// Wire.Dial is where the fault-injection layer (internal/netchaos)
	// interposes for chaos tests.
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
//
//mcvet:lifecycle
type Client struct {
	cfg  Config
	ring *Ring
	// peers is fixed at construction (one pooled wire client per node) and
	// only read afterwards, so it needs no lock.
	peers map[string]*peer

	lastSeq atomic.Uint64
	seqSrc  func() uint64
	tr      *trace.Recorder

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
	wc *wire.Client
	br *breaker
	// hash identifies the peer in trace spans (trace.PeerHash of the addr).
	hash  uint32
	trips atomic.Int64
}

// call performs one round trip against the peer, feeding the breaker with
// the transport outcome. fn returns the transport error only; server-side
// apply failures are the caller's to interpret and do not open the breaker.
func (p *peer) call(fn func(wc *wire.Client) error) error {
	p.trips.Add(1)
	err := fn(p.wc)
	if err != nil {
		p.br.onFailure()
	} else {
		p.br.onSuccess()
	}
	return err
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
	c := &Client{cfg: cfg, ring: ring, peers: make(map[string]*peer, len(ring.Nodes()))}
	for _, addr := range ring.Nodes() {
		wcfg := cfg.Wire
		wcfg.Addr = addr
		wc, err := wire.Dial(wcfg)
		if err != nil {
			return nil, err
		}
		c.peers[addr] = &peer{
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

// replicasOf returns key's replica addresses in ring order.
func (c *Client) replicasOf(key uint64) []string {
	var buf [8]string
	return c.ring.Replicas(key, c.cfg.Replicas, buf[:0])
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
	replicas := c.replicasOf(e.Key)
	acks, err := c.fanPush(replicas, e.Seq, []wire.Entry{e}, c.cfg.WriteQuorum, root)
	root.Finish()
	if acks >= c.cfg.WriteQuorum {
		return nil
	}
	c.quorumFailures.Add(1)
	return fmt.Errorf("%w (%d/%d acks for key %d): %w", ErrNoQuorum, acks, c.cfg.WriteQuorum, e.Key, err)
}

// fanPush sends one REPLICATE push to every replica concurrently, skipping
// peers with an open breaker. It returns as soon as need replicas
// acknowledged durably (applied or already-newer); need <= 0 waits for
// every launched push. Replicas still silent when OpTimeout expires are
// abandoned — their goroutines only write to a buffered channel, the
// breaker, and the ack-skew histogram, so a hung peer costs one deadline,
// never a stall. The returned error joins every per-replica failure
// observed, so a multi-peer outage is diagnosable from one log line.
//
// root is the caller's span, passed BY VALUE: each replica goroutine opens
// a replica_rtt child from its own copy, so an abandoned goroutine never
// races the caller's Finish. Durable acks of a multi-replica push feed the
// ack-skew histogram even when they arrive after the quorum returned — the
// consistency window is exactly the part the caller no longer waits for.
func (c *Client) fanPush(replicas []string, head uint64, ents []wire.Entry, need int, root trace.Span) (int, error) {
	ch := make(chan error, len(replicas))
	launched := 0
	var errs []error
	var firstAck atomic.Int64
	multi := len(replicas) > 1
	for _, addr := range replicas {
		p := c.peers[addr]
		if !p.br.allow() {
			errs = append(errs, fmt.Errorf("%w: %s", errBreakerOpen, addr))
			continue
		}
		launched++
		go func(p *peer, addr string) {
			rsp := root.StartChild(trace.KindReplicaRTT)
			rsp.Op, rsp.Peer = wire.OpReplicate, p.hash
			var statuses []byte
			err := p.call(func(wc *wire.Client) error {
				var err error
				statuses, err = wc.ReplicateCtx(rsp.Context(), head, ents)
				return err
			})
			if err == nil {
				for _, st := range statuses {
					if st == wire.ApplyFailed {
						err = fmt.Errorf("cluster: %s: replica table full", addr)
						break
					}
				}
			}
			rsp.Finish()
			if err == nil && multi {
				now := time.Now().UnixNano()
				if firstAck.CompareAndSwap(0, now) {
					c.ackSkew.Observe(0)
				} else {
					// Observe clamps the rare negative from two CAS races.
					c.ackSkew.Observe(now - firstAck.Load())
				}
			}
			ch <- err
		}(p, addr)
	}
	acks := 0
	timer := time.NewTimer(c.cfg.OpTimeout)
	defer timer.Stop()
	for done := 0; done < launched; done++ {
		select {
		case err := <-ch:
			if err != nil {
				errs = append(errs, err)
				continue
			}
			acks++
			if need > 0 && acks >= need {
				return acks, nil
			}
		case <-timer.C:
			errs = append(errs, fmt.Errorf("%w after %v (%d/%d replies)", errFanDeadline, c.cfg.OpTimeout, done, launched))
			return acks, errors.Join(errs...)
		}
	}
	return acks, errors.Join(errs...)
}

// vread is one replica's VGET answer.
type vread struct {
	state byte
	value uint64
	seq   uint64
	err   error
}

// Get reads key: all consulted replicas are queried concurrently, the
// newest copy wins, and any stale (or missing) replica that answered is
// repaired with the winning copy before Get returns. Peers with an open
// breaker are skipped and peers still silent at OpTimeout are abandoned;
// a read that succeeds without a full fan-out counts as degraded. Get
// fails only when every consulted replica failed.
func (c *Client) Get(key uint64) (value uint64, found bool, err error) {
	c.reads.Add(1)
	root := c.tr.Start(c.tr.Begin(), trace.KindClientOp)
	root.Op, root.Key = wire.OpGet, hashutil.Mix64(key)
	defer root.Finish()
	var buf [8]string
	replicas := c.ring.Replicas(key, c.cfg.ReadFanout, buf[:0])
	reads := make([]vread, len(replicas))
	type rres struct {
		i int
		r vread
	}
	// Results travel through a buffered channel: a goroutine abandoned at
	// the deadline writes only here and to its breaker, never to state the
	// caller still reads. Each goroutine traces from its own copy of root.
	ch := make(chan rres, len(replicas))
	launched := 0
	for i, addr := range replicas {
		p := c.peers[addr]
		if !p.br.allow() {
			reads[i].err = fmt.Errorf("%w: %s", errBreakerOpen, addr)
			continue
		}
		// Overwritten on arrival; left standing for replicas that miss the
		// deadline.
		reads[i].err = fmt.Errorf("%w: %s", errFanDeadline, addr)
		launched++
		go func(i int, p *peer) {
			rsp := root.StartChild(trace.KindReplicaRTT)
			rsp.Op, rsp.Peer = wire.OpVGet, p.hash
			var r vread
			r.err = p.call(func(wc *wire.Client) error {
				var err error
				r.state, r.value, r.seq, err = wc.VGetCtx(rsp.Context(), key)
				return err
			})
			rsp.Finish()
			ch <- rres{i, r}
		}(i, p)
	}
	timer := time.NewTimer(c.cfg.OpTimeout)
	defer timer.Stop()
collect:
	for done := 0; done < launched; done++ {
		select {
		case rr := <-ch:
			reads[rr.i] = rr.r
		case <-timer.C:
			break collect
		}
	}

	best := -1
	answered := 0
	for i := range reads {
		if reads[i].err != nil {
			c.readErrors.Add(1)
			continue
		}
		answered++
		if best < 0 || reads[i].seq > reads[best].seq {
			best = i
		}
	}
	if answered == 0 {
		return 0, false, fmt.Errorf("%w (key %d): %w", ErrAllReplicasFailed, key, errors.Join(readErrsOf(reads)...))
	}
	if answered < len(replicas) {
		c.degradedReads.Add(1)
	}
	win := reads[best]
	c.repair(key, replicas, reads, win, root)
	if win.state == wire.VStateLive {
		return win.value, true, nil
	}
	return 0, false, nil
}

// readErrsOf collects the per-replica failures of a read fan-out.
func readErrsOf(reads []vread) []error {
	var errs []error
	for i := range reads {
		if reads[i].err != nil {
			errs = append(errs, reads[i].err)
		}
	}
	return errs
}

// repair pushes the winning copy to every replica that answered with an
// older one. Repairs are synchronous — the read returns only after the
// disagreeing replicas converged — and best-effort: a failed repair is not
// a read failure. The repair pushes trace as children of the read's root
// span, so a trace shows which read triggered which repair.
func (c *Client) repair(key uint64, replicas []string, reads []vread, win vread, root trace.Span) {
	if win.state == wire.VStateMissing {
		return // nobody has ever seen the key; nothing to propagate
	}
	ent := wire.Entry{Seq: win.seq, Key: key}
	switch win.state {
	case wire.VStateLive:
		ent.Op = wire.OpPut
		ent.Value = win.value
	case wire.VStateTomb:
		ent.Op = wire.OpDel
	}
	var stale []string
	for i := range reads {
		if reads[i].err != nil {
			continue
		}
		if reads[i].seq < win.seq || reads[i].state == wire.VStateMissing {
			stale = append(stale, replicas[i])
		}
	}
	if len(stale) == 0 {
		return
	}
	c.repairs.Add(int64(len(stale)))
	c.fanPush(stale, win.seq, []wire.Entry{ent}, 0, root)
}

// PutBatch writes every pair, grouping the per-replica pushes into one
// REPLICATE frame per node. It fails (with the first per-key error) if any
// key misses its write quorum; all other keys are still written.
func (c *Client) PutBatch(keys, values []uint64) error {
	if len(keys) != len(values) {
		panic("cluster: PutBatch called with mismatched key/value lengths")
	}
	ents := make([]wire.Entry, len(keys))
	for i, k := range keys {
		ents[i] = wire.Entry{Seq: c.nextSeq(), Op: wire.OpPut, Key: k, Value: values[i]}
	}
	return c.writeBatch(ents)
}

// DelBatch deletes every key, grouped like PutBatch.
func (c *Client) DelBatch(keys []uint64) error {
	ents := make([]wire.Entry, len(keys))
	for i, k := range keys {
		ents[i] = wire.Entry{Seq: c.nextSeq(), Op: wire.OpDel, Key: k}
	}
	return c.writeBatch(ents)
}

// writeBatch distributes entries to their replicas, one push per node, and
// verifies every entry reached its write quorum. Nodes with an open
// breaker are skipped; nodes silent at OpTimeout are abandoned. A quorum
// failure reports every per-node error joined. Batch pushes are untraced:
// one frame carries many keys, so no single-request span tree fits — the
// per-op path (Put/Del/Get) is the traced one.
func (c *Client) writeBatch(ents []wire.Entry) error {
	c.writes.Add(int64(len(ents)))
	perNode := make(map[string][]wire.Entry)
	perNodeIdx := make(map[string][]int)
	for i := range ents {
		for _, addr := range c.replicasOf(ents[i].Key) {
			perNode[addr] = append(perNode[addr], ents[i])
			perNodeIdx[addr] = append(perNodeIdx[addr], i)
		}
	}
	type bres struct {
		addr     string
		statuses []byte
		err      error
	}
	ch := make(chan bres, len(perNode))
	launched := 0
	var errs []error
	for addr, batch := range perNode {
		p := c.peers[addr]
		if !p.br.allow() {
			errs = append(errs, fmt.Errorf("%w: %s", errBreakerOpen, addr))
			continue
		}
		launched++
		go func(addr string, p *peer, batch []wire.Entry) {
			var statuses []byte
			err := p.call(func(wc *wire.Client) error {
				var err error
				statuses, err = wc.Replicate(batch[len(batch)-1].Seq, batch)
				return err
			})
			ch <- bres{addr, statuses, err}
		}(addr, p, batch)
	}
	acks := make([]int, len(ents))
	timer := time.NewTimer(c.cfg.OpTimeout)
	defer timer.Stop()
collect:
	for done := 0; done < launched; done++ {
		select {
		case r := <-ch:
			if r.err != nil {
				errs = append(errs, fmt.Errorf("cluster: %s: %w", r.addr, r.err))
				continue
			}
			for j, st := range r.statuses {
				if st == wire.ApplyFailed {
					errs = append(errs, fmt.Errorf("cluster: %s: replica table full (key %d)", r.addr, perNode[r.addr][j].Key))
					continue
				}
				acks[perNodeIdx[r.addr][j]]++
			}
		case <-timer.C:
			errs = append(errs, fmt.Errorf("%w after %v (%d/%d replies)", errFanDeadline, c.cfg.OpTimeout, done, launched))
			break collect
		}
	}
	joined := errors.Join(errs...)
	for i, n := range acks {
		if n < c.cfg.WriteQuorum {
			c.quorumFailures.Add(1)
			return fmt.Errorf("%w (%d/%d acks for key %d): %w", ErrNoQuorum, n, c.cfg.WriteQuorum, ents[i].Key, joined)
		}
	}
	return nil
}

// GetBatch reads every key with the same replica fan-out and read-repair
// as Get, a bounded number of keys in flight at once.
func (c *Client) GetBatch(keys []uint64) (values []uint64, found []bool, err error) {
	values = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	errs := make([]error, len(keys))
	sem := make(chan struct{}, 16)
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, k uint64) {
			defer wg.Done()
			defer func() { <-sem }()
			values[i], found[i], errs[i] = c.Get(k)
		}(i, k)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return values, found, e
		}
	}
	return values, found, nil
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
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	simple := func(name, help string, v int64) {
		pf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	simple("mccuckoo_cluster_reads_total", "Cluster reads issued.", m.Reads)
	simple("mccuckoo_cluster_read_errors_total", "Per-replica read failures.", m.ReadErrors)
	simple("mccuckoo_cluster_read_repairs_total", "Stale replicas repaired by reads.", m.Repairs)
	simple("mccuckoo_cluster_writes_total", "Cluster writes issued.", m.Writes)
	simple("mccuckoo_cluster_quorum_failures_total", "Writes that missed their quorum.", m.QuorumFailures)
	simple("mccuckoo_cluster_degraded_reads_total", "Reads that succeeded without a full replica fan-out.", m.DegradedReads)
	addrs := make([]string, 0, len(m.PeerTrips))
	for addr := range m.PeerTrips {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	perPeer := func(name, help, typ string, v func(addr string) int64) {
		pf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, addr := range addrs {
			pf("%s{peer=%q} %d\n", name, addr, v(addr))
		}
	}
	perPeer("mccuckoo_cluster_peer_trips_total", "Round trips per peer.", "counter",
		func(addr string) int64 { return m.PeerTrips[addr] })
	perPeer("mccuckoo_cluster_breaker_open", "1 while the peer's breaker rejects requests.", "gauge",
		func(addr string) int64 {
			if m.BreakerOpen[addr] {
				return 1
			}
			return 0
		})
	perPeer("mccuckoo_cluster_breaker_trips_total", "Breaker closed-to-open transitions per peer.", "counter",
		func(addr string) int64 { return m.BreakerTrips[addr] })
	perPeer("mccuckoo_cluster_breaker_skips_total", "Requests skipped by an open breaker per peer.", "counter",
		func(addr string) int64 { return m.BreakerSkips[addr] })
	if err != nil {
		return err
	}
	return telemetry.WriteHistogram(w, "mccuckoo_cluster_ack_skew_seconds",
		"Per-replica durable-ack delay behind a multi-replica push's first ack: the W>1 consistency window.",
		"", m.AckSkew, 1e9)
}
