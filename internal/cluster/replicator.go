package cluster

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo/internal/keep"
	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/wire"
)

// ReplicatorConfig configures a node-side Replicator.
type ReplicatorConfig struct {
	// Self is this node's address as it appears in Nodes — entries for
	// keys this node does not own (per the ring) are skipped.
	Self string

	// Nodes, Replicas, VNodes, Seed parameterize the ring and must match
	// the cluster clients' configuration.
	Nodes    []string
	Replicas int
	VNodes   int
	Seed     uint64

	// DialTimeout bounds each peer dial (default 5s); ReadTimeout bounds
	// the wait for the next stream frame (default 10s — comfortably above
	// the server's keepalive cadence, so an expiry means a dead peer).
	DialTimeout time.Duration
	ReadTimeout time.Duration

	// Dial, when non-nil, replaces net.DialTimeout for peer subscriptions.
	// The fault-injection layer (internal/netchaos) interposes here.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	// RetryBase is the first reconnect backoff; each failure doubles it up
	// to RetryMax, with ±50% jitter (defaults 100ms, 3s).
	RetryBase time.Duration
	RetryMax  time.Duration

	// Logf, when non-nil, receives one line per abnormal peer event.
	Logf func(format string, args ...any)

	// Trace, when non-nil, records a repl_apply span around each streamed
	// batch apply (entries applied in Kicks, stream lag in Wait). Stream
	// applies have no client context, so these spans surface only through
	// the recorder's slow-capture threshold — the interesting case, an
	// apply stalling behind a kick storm. Nil disables tracing.
	Trace *trace.Recorder
}

// Replicator keeps one node's Replicated store converged with its peers: a
// goroutine per peer subscribes to the peer's op log, applies the streamed
// entries this node owns, and reconnects with backoff when the peer goes
// away. A stream that falls behind the peer's op-log ring is caught up in
// place by the peer, on the same connection. A restarted node needs no
// special bootstrap path: its subscriptions resume from the drained point
// its snapshot+sidecar restored (ReplicaStats.DrainedSeq), and a peer answers
// with a full state dump when that point is behind its ring.
//
// Each peer's resume point advances only when that peer's stream has
// drained, never through pushes. A pushed entry (a client write or a
// read-repair) can carry a sequence number far above entries this node has
// not yet received, so resuming from the store's applied high-water mark
// could skip the full dump those entries need. The lowest resume point over
// the peers is handed to the store on every advance, so a checkpoint
// persists it.
//
//mcvet:lifecycle
type Replicator struct {
	cfg  ReplicatorConfig
	ring *Ring
	rep  *wire.Replicated
	tr   *trace.Recorder

	stop chan struct{}
	wg   sync.WaitGroup

	// peerStates is fixed at Start and only read afterwards.
	peerStates map[string]*peerState
}

// peerState is one peer's resume point plus the per-peer telemetry the
// replica-lag metric reads.
type peerState struct {
	// resume is the sequence number the next subscription to this peer
	// resumes after: the store's drained point at Start, then the newest
	// sequence number the stream had delivered when its latest keepalive
	// arrived.
	resume atomic.Uint64

	// lag is the peer's advertised head minus the newest sequence number
	// seen on its stream, clamped at zero. It is measured before the
	// ownership filter — a node that skips entries it does not own is not
	// lagging — so it reads zero exactly when the subscription has drained
	// everything the peer has.
	lag       atomic.Int64
	applied   atomic.Int64
	stale     atomic.Int64
	failed    atomic.Int64
	connects  atomic.Int64
	errors    atomic.Int64
	fullSyncs atomic.Int64

	// lastFrame is the unix-nano timestamp of the newest frame received on
	// this peer's subscription, zero before the first handshake completes.
	// The stream-age gauge derives from it: a lag gauge stuck at zero can
	// mean "current" or "stream dead and nothing advertised" — the frame
	// age distinguishes the two.
	lastFrame atomic.Int64
}

// NewReplicator validates cfg and prepares the per-peer loops; Start
// launches them.
func NewReplicator(rep *wire.Replicated, cfg ReplicatorConfig) (*Replicator, error) {
	ring, err := NewRing(cfg.Nodes, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 3 * time.Second
	}
	r := &Replicator{
		cfg:        cfg,
		ring:       ring,
		rep:        rep,
		tr:         cfg.Trace,
		stop:       make(chan struct{}),
		peerStates: make(map[string]*peerState),
	}
	for _, addr := range ring.Nodes() {
		if addr == cfg.Self {
			continue
		}
		r.peerStates[addr] = &peerState{}
	}
	return r, nil
}

func (r *Replicator) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Start launches one subscription loop per peer, each resuming from the
// store's drained point.
func (r *Replicator) Start() {
	from := r.rep.ReplicaStats().DrainedSeq
	for addr, st := range r.peerStates {
		st.resume.Store(from)
		r.wg.Add(1)
		go r.peerLoop(addr, st)
	}
}

// Close stops every peer loop and waits for them to exit.
func (r *Replicator) Close() {
	close(r.stop)
	r.wg.Wait()
}

// peerLoop subscribes to one peer forever (until Close), reconnecting with
// jittered exponential backoff.
func (r *Replicator) peerLoop(addr string, st *peerState) {
	defer r.wg.Done()
	backoff := r.cfg.RetryBase
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		err := r.streamOnce(addr, st)
		if err == nil {
			return // stopped
		}
		st.errors.Add(1)
		r.logf("cluster: peer %s: %v", addr, err)
		d := backoff/2 + rand.N(backoff)
		backoff *= 2
		if backoff > r.cfg.RetryMax {
			backoff = r.cfg.RetryMax
		}
		select {
		case <-r.stop:
			return
		case <-time.After(d):
		}
	}
}

// streamOnce runs one subscription: dial, handshake, then apply stream
// frames until the connection breaks (returned as an error) or Close (nil).
// It subscribes after st.resume and raises st.resume to the newest sequence
// number delivered whenever a keepalive (an empty frame) arrives: the peer
// sends one only after a pull of its op log came back empty, catch-ups
// included, so by then everything the peer held at that pull has been
// delivered.
//
//mcvet:deadlined
func (r *Replicator) streamOnce(addr string, st *peerState) error {
	dial := r.cfg.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(addr, r.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer nc.Close()
	st.connects.Add(1)

	// Close interrupts the blocking read below by killing the connection.
	dead := make(chan struct{})
	defer close(dead)
	go func() {
		select {
		case <-r.stop:
			nc.Close()
		case <-dead:
		}
	}()

	fromSeq := st.resume.Load()
	sub := wire.AppendFrame(nil, wire.Frame{
		Type:    wire.OpSub,
		ID:      1,
		Payload: wire.AppendSubscribePayload(nil, fromSeq),
	})
	// A failed deadline arm is a connection failure — proceeding without
	// the deadline could hang the subscribe write on a dead peer.
	if err := nc.SetWriteDeadline(time.Now().Add(r.cfg.DialTimeout)); err != nil {
		return fmt.Errorf("subscribe: set write deadline: %w", err)
	}
	if _, err := nc.Write(sub); err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}

	// buf, ents and owned are parked between frames, so each obeys the keep
	// rule (keep.Slice) before the next read blocks. The frame is returned,
	// not captured, so no stale payload pins a dropped buffer either.
	var buf []byte
	readFrame := func() (wire.Frame, error) {
		if derr := nc.SetReadDeadline(time.Now().Add(r.cfg.ReadTimeout)); derr != nil {
			return wire.Frame{}, fmt.Errorf("set read deadline: %w", derr)
		}
		f, b, err := wire.ReadFrame(nc, wire.DefaultMaxPayload, buf)
		buf = b
		if err == nil {
			st.lastFrame.Store(time.Now().UnixNano())
		}
		return f, err
	}
	f, err := readFrame()
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if !f.IsResponse() || f.Status() != wire.StatusOK {
		return fmt.Errorf("handshake rejected: %s", handshakeReject(f))
	}
	head, full, ok := wire.ParseSubscribeResponse(f.Payload)
	if !ok {
		return fmt.Errorf("malformed subscribe response")
	}
	if full {
		st.fullSyncs.Add(1)
		r.logf("cluster: peer %s: resume point %d predates op log; taking full sync", addr, fromSeq)
	}
	// seen is the newest sequence number this stream has delivered,
	// counted before the ownership filter. A head above it means entries
	// are still in flight; a head at or below it means we are current.
	seen := uint64(0)
	observeHead(st, head, seen)

	var ents, owned []wire.Entry
	for {
		buf, ents, owned = keep.Slice(buf), keep.Slice(ents), keep.Slice(owned)
		f, err := readFrame()
		if err != nil {
			select {
			case <-r.stop:
				return nil
			default:
			}
			return fmt.Errorf("stream: %w", err)
		}
		if f.IsResponse() || f.Type != wire.OpReplicate {
			// After the handshake the server sends only REPLICATE frames;
			// a stream that falls behind its ring is caught up in place.
			return fmt.Errorf("unexpected frame on subscription: %s", handshakeReject(f))
		}
		head, parsed, ok := wire.ParseReplicatePayload(f.Payload, ents)
		if !ok {
			return fmt.Errorf("malformed replicate frame")
		}
		ents = parsed
		if len(ents) == 0 && seen > st.resume.Load() {
			// Drained: hand the store the lowest resume point over the
			// peers, which a checkpoint persists for a restart.
			st.resume.Store(seen)
			low := seen
			for _, p := range r.peerStates {
				low = min(low, p.resume.Load())
			}
			r.rep.SetDrained(low)
		}
		for _, e := range ents {
			if e.Seq > seen {
				seen = e.Seq
			}
			if r.ring.Owns(r.cfg.Self, e.Key, r.cfg.Replicas) {
				owned = append(owned, e)
			}
		}
		if len(owned) > 0 {
			// No client context reaches a stream apply, so the span's trace
			// id is zero and only the recorder's slow-capture threshold can
			// surface it — exactly the apply-stall case worth keeping.
			asp := r.tr.Start(trace.Context{}, trace.KindReplApply)
			asp.Op, asp.Peer = wire.OpReplicate, trace.PeerHash(addr)
			applied, stale, failed := r.rep.ApplyStream(owned)
			asp.Kicks = int32(applied)
			if head > seen {
				asp.Wait = int64(head - seen)
			}
			asp.Finish()
			st.applied.Add(int64(applied))
			st.stale.Add(int64(stale))
			st.failed.Add(int64(failed))
		}
		observeHead(st, head, seen)
	}
}

// observeHead refreshes the peer's lag gauge: its advertised high-water
// sequence number minus the newest sequence its stream has delivered,
// clamped at zero (a peer cannot advertise less than it has sent without
// the gauge simply reading current).
func observeHead(st *peerState, head, seen uint64) {
	lag := int64(0)
	if head > seen {
		lag = int64(head - seen)
	}
	st.lag.Store(lag)
}

// handshakeReject renders a rejection frame for an error message.
func handshakeReject(f wire.Frame) string {
	if f.IsResponse() && f.Status() == wire.StatusErr {
		return string(f.Payload)
	}
	return fmt.Sprintf("unexpected frame type %#02x", f.Type)
}

// StreamAges reports, per peer, the seconds since the last frame arrived on
// its subscription stream, or -1 for a peer whose stream has never produced
// a frame. Keepalives count, so a healthy idle stream stays young while a
// dead one ages past the server's keepalive cadence.
func (r *Replicator) StreamAges() map[string]float64 {
	now := time.Now().UnixNano()
	ages := make(map[string]float64, len(r.peerStates))
	for addr, st := range r.peerStates {
		last := st.lastFrame.Load()
		if last == 0 {
			ages[addr] = -1
			continue
		}
		ages[addr] = float64(now-last) / 1e9
	}
	return ages
}

// MaxLag returns the largest per-peer replica lag, in op-log entries.
func (r *Replicator) MaxLag() int64 {
	var max int64
	for _, st := range r.peerStates {
		if l := st.lag.Load(); l > max {
			max = l
		}
	}
	return max
}

// WritePrometheus writes the per-peer replication metrics in Prometheus
// text exposition under the mccuckoo_peer_ prefix.
func (r *Replicator) WritePrometheus(w io.Writer) error {
	addrs := make([]string, 0, len(r.peerStates))
	for addr := range r.peerStates {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	p := telemetry.NewPromWriter(w)
	for _, s := range []struct {
		name, help, typ string
		get             func(*peerState) int64
	}{
		{"mccuckoo_peer_replica_lag", "Peer head minus newest streamed sequence number.", "gauge",
			func(st *peerState) int64 { return st.lag.Load() }},
		{"mccuckoo_peer_entries_applied_total", "Streamed entries applied from this peer.", "counter",
			func(st *peerState) int64 { return st.applied.Load() }},
		{"mccuckoo_peer_entries_stale_total", "Streamed entries ignored as stale.", "counter",
			func(st *peerState) int64 { return st.stale.Load() }},
		{"mccuckoo_peer_entries_failed_total", "Streamed entries that lost to table capacity.", "counter",
			func(st *peerState) int64 { return st.failed.Load() }},
		{"mccuckoo_peer_connects_total", "Subscription connections established to this peer.", "counter",
			func(st *peerState) int64 { return st.connects.Load() }},
		{"mccuckoo_peer_errors_total", "Subscription failures for this peer.", "counter",
			func(st *peerState) int64 { return st.errors.Load() }},
		{"mccuckoo_peer_full_syncs_total", "Subscriptions that required a full state dump.", "counter",
			func(st *peerState) int64 { return st.fullSyncs.Load() }},
	} {
		p.Header(s.name, s.help, s.typ)
		for _, addr := range addrs {
			p.Int(s.name, telemetry.Label("peer", addr), s.get(r.peerStates[addr]))
		}
	}
	ages := r.StreamAges()
	p.Header("mccuckoo_peer_stream_age_seconds",
		"Seconds since the last subscription frame from this peer (-1: never connected).", "gauge")
	for _, addr := range addrs {
		p.Float("mccuckoo_peer_stream_age_seconds", telemetry.Label("peer", addr), ages[addr])
	}
	return p.Err()
}
