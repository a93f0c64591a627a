package cluster

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/wire"
)

// This file is the anti-entropy tier of the cluster (DESIGN.md §12): while
// read-repair heals keys that reads happen to touch and the op-log
// subscriptions heal everything a live connection can stream, divergence
// created while both were impossible (a partition that outlasted the op
// log, a missed oplog window, a lost sidecar) persists silently until a
// read lands on it. The Sweeper finds such keys proactively: it exchanges
// ring-ownership-filtered XOR digests with each peer over key ranges,
// bisects mismatched ranges until they are small enough to enumerate, and
// repairs each divergent key through the same versioned paths reads use
// (VGET to pull, REPLICATE to push).

// DigestFilter builds the ownership filter both sides of an anti-entropy
// exchange must share: a key contributes to the digest between self and a
// peer only when BOTH own it per the ring. The two directions of an
// exchange then digest the same key set, so equal digests mean converged.
func DigestFilter(ring *Ring, self string, replicas int) func(peer string, key uint64) bool {
	return func(peer string, key uint64) bool {
		return ring.Owns(peer, key, replicas) && ring.Owns(self, key, replicas)
	}
}

// SweeperConfig configures a Sweeper. Self and Nodes are required.
type SweeperConfig struct {
	// Self is this node's address as it appears in Nodes.
	Self string

	// Nodes, Replicas, VNodes, Seed parameterize the ring and must match
	// the rest of the cluster.
	Nodes    []string
	Replicas int
	VNodes   int
	Seed     uint64

	// Interval is the pause between background sweeps (default 30s).
	Interval time.Duration

	// LeafKeys is the bisection leaf size (default 128): a range holding
	// at most this many keys on both sides is reconciled key by key
	// instead of split further.
	LeafKeys int

	// MaxRanges bounds the digest round trips per peer per sweep (default
	// 1024). Ranges beyond the budget are counted as truncated — never
	// silently dropped — and picked up by the next sweep.
	MaxRanges int

	// BreakerFailures is how many consecutive failed sweeps trip a peer's
	// breaker open (default 3): a known-dead peer is then skipped — its
	// skips counted — instead of costing a dial timeout every interval.
	// BreakerProbe is the base interval between half-open retry probes of
	// an open breaker (default Interval), jittered ±50% from a stream
	// seeded by Seed and the peer address.
	BreakerFailures int
	BreakerProbe    time.Duration

	// Wire is the per-peer client template; Addr is overridden per peer.
	// Wire.Dial is where the fault-injection layer interposes.
	Wire wire.ClientConfig

	// Logf, when non-nil, receives one line per repaired key range and per
	// sweep error.
	Logf func(format string, args ...any)

	// Trace, when non-nil, records a sweep_repair root span per peer sweep
	// (keys repaired in Kicks) and propagates its context into the digest,
	// pull, and push frames — so a key repaired by anti-entropy shows up on
	// the remote node's flight recorder parented to the sweep, not as an
	// anonymous write. Nil disables tracing.
	Trace *trace.Recorder
}

// Sweeper runs anti-entropy sweeps between one node's Replicated store and
// its peers. Construct with NewSweeper, then either Start for the
// background loop or SweepOnce for a synchronous pass (tests, drills).
//
//mcvet:lifecycle
type Sweeper struct {
	cfg      SweeperConfig
	ring     *Ring
	rep      *wire.Replicated
	tr       *trace.Recorder
	peers    map[string]*wire.Client
	breakers map[string]*breaker

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	sweeps     atomic.Int64
	ranges     atomic.Int64
	mismatches atomic.Int64
	pulled     atomic.Int64
	pushed     atomic.Int64
	truncated  atomic.Int64
	errorCount atomic.Int64
}

// NewSweeper validates cfg, dials nothing (wire clients connect lazily),
// and installs the shared ownership digest filter on rep so this node
// answers peers' DIGEST requests with the same key set it digests locally.
func NewSweeper(rep *wire.Replicated, cfg SweeperConfig) (*Sweeper, error) {
	ring, err := NewRing(cfg.Nodes, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: SweeperConfig.Self is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(ring.Nodes()) {
		cfg.Replicas = len(ring.Nodes())
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.LeafKeys <= 0 {
		cfg.LeafKeys = 128
	}
	if cfg.LeafKeys > wire.MaxDigestKeys {
		cfg.LeafKeys = wire.MaxDigestKeys
	}
	if cfg.MaxRanges <= 0 {
		cfg.MaxRanges = 1024
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = 3
	}
	if cfg.BreakerProbe <= 0 {
		cfg.BreakerProbe = cfg.Interval
	}
	s := &Sweeper{
		cfg:      cfg,
		ring:     ring,
		rep:      rep,
		tr:       cfg.Trace,
		peers:    make(map[string]*wire.Client),
		breakers: make(map[string]*breaker),
		stop:     make(chan struct{}),
	}
	for _, addr := range ring.Nodes() {
		if addr == cfg.Self {
			continue
		}
		wcfg := cfg.Wire
		wcfg.Addr = addr
		wc, err := wire.Dial(wcfg)
		if err != nil {
			return nil, err
		}
		s.peers[addr] = wc
		s.breakers[addr] = newBreaker(cfg.BreakerFailures, cfg.BreakerProbe, breakerSeed(cfg.Seed, addr))
	}
	rep.SetDigestFilter(DigestFilter(ring, cfg.Self, cfg.Replicas))
	return s, nil
}

func (s *Sweeper) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Start launches the background sweep loop.
func (s *Sweeper) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(s.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.SweepOnce()
			}
		}
	}()
}

// Close stops the background loop and closes the peer clients.
func (s *Sweeper) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	for _, wc := range s.peers {
		wc.Close()
	}
}

// SweepOnce runs one full anti-entropy pass: every peer's shared key space
// is digest-compared and every divergent key repaired. It returns the
// number of keys repaired (pulled + pushed) and the last per-peer error.
func (s *Sweeper) SweepOnce() (repaired int, err error) {
	s.sweeps.Add(1)
	for addr, wc := range s.peers {
		// A peer whose breaker is open is skipped (and the skip counted)
		// until its jittered probe interval elapses — a dead peer costs
		// nothing per sweep instead of a dial timeout.
		br := s.breakers[addr]
		if !br.allow() {
			continue
		}
		n, perr := s.sweepPeer(addr, wc)
		repaired += n
		if perr != nil {
			br.onFailure()
			s.errorCount.Add(1)
			s.logf("cluster: sweep %s: %v", addr, perr)
			err = perr
		} else {
			br.onSuccess()
		}
	}
	return repaired, err
}

// krange is one [lo, hi] key interval of the bisection.
type krange struct{ lo, hi uint64 }

// sweepPeer reconciles the keys this node shares with one peer by range
// bisection over the full u64 key space. Each peer sweep is a fresh trace
// root: the digest, pull, and push frames carry the sweep's context, so a
// repair arriving at the peer is attributable to anti-entropy rather than
// indistinguishable from client traffic.
func (s *Sweeper) sweepPeer(addr string, wc *wire.Client) (repaired int, err error) {
	root := s.tr.Start(s.tr.Begin(), trace.KindSweepRepair)
	root.Op, root.Peer = wire.OpDigest, trace.PeerHash(addr)
	defer func() {
		root.Kicks = int32(repaired)
		root.Finish()
	}()
	tc := root.Context()

	stack := []krange{{0, ^uint64(0)}}
	budget := s.cfg.MaxRanges
	for len(stack) > 0 && budget > 0 {
		rg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		budget--
		s.ranges.Add(1)

		rd, rc, rkeys, err := wc.DigestRange(tc, s.cfg.Self, rg.lo, rg.hi, s.cfg.LeafKeys)
		if err != nil {
			return repaired, fmt.Errorf("digest [%d,%d]: %w", rg.lo, rg.hi, err)
		}
		ld, lc, lkeys := s.rep.DigestRange(addr, rg.lo, rg.hi, s.cfg.LeafKeys)
		if rd == ld && rc == lc {
			continue
		}
		s.mismatches.Add(1)
		if rc <= uint64(s.cfg.LeafKeys) && lc <= uint64(s.cfg.LeafKeys) {
			n, err := s.reconcileLeaf(tc, addr, wc, rkeys, lkeys)
			repaired += n
			if err != nil {
				return repaired, err
			}
			continue
		}
		mid := rg.lo + (rg.hi-rg.lo)/2
		stack = append(stack, krange{mid + 1, rg.hi}, krange{rg.lo, mid})
	}
	if len(stack) > 0 {
		// Out of budget with ranges left: count them so a sweep that could
		// not cover everything never reads as clean.
		s.truncated.Add(int64(len(stack)))
		s.logf("cluster: sweep %s: range budget exhausted with %d ranges pending", addr, len(stack))
	}
	return repaired, nil
}

// reconcileLeaf repairs one enumerable range: the newer side of each
// divergent key wins — pulled from the peer via VGET and applied through
// the versioned stream path, or pushed to the peer via REPLICATE (the same
// push read-repair uses).
func (s *Sweeper) reconcileLeaf(tc trace.Context, addr string, wc *wire.Client, remote, local []wire.DigestEntry) (repaired int, err error) {
	lmeta := make(map[uint64]uint64, len(local))
	for _, e := range local {
		lmeta[e.Key] = e.Meta
	}
	var push []wire.Entry
	for _, re := range remote {
		lm, ok := lmeta[re.Key]
		if ok {
			delete(lmeta, re.Key)
		}
		switch {
		case !ok || re.Meta>>1 > lm>>1:
			// The peer is newer: pull its copy.
			n, err := s.pullKey(tc, wc, re)
			repaired += n
			if err != nil {
				return repaired, err
			}
		case lm>>1 > re.Meta>>1:
			// This node is newer: push our copy.
			if e, ok := s.localEntry(re.Key); ok {
				push = append(push, e)
			}
		}
		// Equal sequence numbers: converged (or an unresolvable seq
		// collision no push could fix) — leave it alone.
	}
	// Keys only this node has.
	for k := range lmeta {
		if e, ok := s.localEntry(k); ok {
			push = append(push, e)
		}
	}
	if len(push) > 0 {
		if _, err := wc.Replicate(tc, push[len(push)-1].Seq, push); err != nil {
			return repaired, fmt.Errorf("push %d repairs: %w", len(push), err)
		}
		repaired += len(push)
		s.pushed.Add(int64(len(push)))
	}
	return repaired, nil
}

// pullKey fetches one divergent key from the peer and applies it locally
// through the versioned apply path.
func (s *Sweeper) pullKey(tc trace.Context, wc *wire.Client, re wire.DigestEntry) (int, error) {
	if re.Meta&1 == 1 {
		// A tombstone's meta already carries everything: apply directly.
		s.rep.ApplyStream([]wire.Entry{{Seq: re.Meta >> 1, Op: wire.OpDel, Key: re.Key}})
		s.pulled.Add(1)
		return 1, nil
	}
	state, value, seq, err := wc.VGet(tc, re.Key)
	if err != nil {
		return 0, fmt.Errorf("pull key %d: %w", re.Key, err)
	}
	switch state {
	case wire.VStateLive:
		s.rep.ApplyStream([]wire.Entry{{Seq: seq, Op: wire.OpPut, Key: re.Key, Value: value}})
	case wire.VStateTomb:
		s.rep.ApplyStream([]wire.Entry{{Seq: seq, Op: wire.OpDel, Key: re.Key}})
	default:
		return 0, nil // vanished between digest and pull; the next sweep settles it
	}
	s.pulled.Add(1)
	return 1, nil
}

// localEntry renders this node's current copy of key as a replication
// entry for a push repair. The digest enumeration's meta is revalidated
// against the live store, so a key that moved on since the digest is
// pushed at its current (newer) state rather than a stale one.
func (s *Sweeper) localEntry(key uint64) (wire.Entry, bool) {
	state, value, seq := s.rep.VGet(key)
	switch state {
	case wire.VStateLive:
		return wire.Entry{Seq: seq, Op: wire.OpPut, Key: key, Value: value}, true
	case wire.VStateTomb:
		return wire.Entry{Seq: seq, Op: wire.OpDel, Key: key}, true
	}
	return wire.Entry{}, false
}

// SweepStats is a snapshot of the sweeper's counters.
type SweepStats struct {
	Sweeps           int64
	Ranges           int64
	MismatchedRanges int64
	KeysPulled       int64
	KeysPushed       int64
	RangesTruncated  int64
	Errors           int64
	// PeersSkipped counts peer sweeps skipped by an open breaker.
	PeersSkipped int64
}

// StatsSnapshot returns the current counter values.
func (s *Sweeper) StatsSnapshot() SweepStats {
	st := SweepStats{
		Sweeps:           s.sweeps.Load(),
		Ranges:           s.ranges.Load(),
		MismatchedRanges: s.mismatches.Load(),
		KeysPulled:       s.pulled.Load(),
		KeysPushed:       s.pushed.Load(),
		RangesTruncated:  s.truncated.Load(),
		Errors:           s.errorCount.Load(),
	}
	for _, br := range s.breakers {
		st.PeersSkipped += br.skips.Load()
	}
	return st
}

// WritePrometheus writes the sweep metrics in Prometheus text exposition
// under the mccuckoo_sweep_ prefix.
func (s *Sweeper) WritePrometheus(w io.Writer) error {
	st := s.StatsSnapshot()
	p := telemetry.NewPromWriter(w)
	p.Simple("mccuckoo_sweep_sweeps_total", "Anti-entropy sweeps completed.", "counter", st.Sweeps)
	p.Simple("mccuckoo_sweep_ranges_total", "Digest ranges compared.", "counter", st.Ranges)
	p.Simple("mccuckoo_sweep_mismatched_ranges_total", "Digest ranges that disagreed.", "counter", st.MismatchedRanges)
	p.Simple("mccuckoo_sweep_keys_pulled_total", "Divergent keys pulled from peers.", "counter", st.KeysPulled)
	p.Simple("mccuckoo_sweep_keys_pushed_total", "Divergent keys pushed to peers.", "counter", st.KeysPushed)
	p.Simple("mccuckoo_sweep_ranges_truncated_total", "Ranges dropped at the per-sweep budget.", "counter", st.RangesTruncated)
	p.Simple("mccuckoo_sweep_errors_total", "Per-peer sweep failures.", "counter", st.Errors)
	p.Simple("mccuckoo_sweep_peers_skipped_total", "Peer sweeps skipped by an open breaker.", "counter", st.PeersSkipped)
	return p.Err()
}
