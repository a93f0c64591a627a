package cluster

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mccuckoo/internal/netchaos"
	"mccuckoo/internal/wire"
)

func TestDigestFilterOwnership(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	ring, err := NewRing(nodes, 64, testRingSeed)
	if err != nil {
		t.Fatal(err)
	}
	filter := DigestFilter(ring, "a", 2)
	for key := uint64(1); key < 2000; key += 13 {
		for _, peer := range nodes {
			want := ring.Owns("a", key, 2) && ring.Owns(peer, key, 2)
			if got := filter(peer, key); got != want {
				t.Fatalf("filter(%s, %d) = %v, want %v", peer, key, got, want)
			}
		}
	}
}

// startSweeper builds a sweeper for one node. Every node gets one even in
// tests that only run some of them: NewSweeper installs the node's
// ownership digest filter, which the node needs to answer its peers'
// DIGEST requests over the shared key set.
func startSweeper(t *testing.T, n *testNode, nodes []string, leafKeys int, dial func(string, time.Duration) (net.Conn, error)) *Sweeper {
	t.Helper()
	cfg := SweeperConfig{
		Self:     n.addr,
		Nodes:    nodes,
		Replicas: 2,
		Seed:     testRingSeed,
		LeafKeys: leafKeys,
		Logf:     t.Logf,
	}
	if dial != nil {
		cfg.Wire.Dial = dial
	}
	sw, err := NewSweeper(n.rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.Close)
	return sw
}

// TestSweeperBisectionRepairsDivergence seeds four kinds of divergence
// directly into a 3-node R=2 cluster — one-sided writes in both directions,
// a stale copy, and a tombstone shadowed by an older live value — and
// checks that sweeping reconciles every owner pair through range bisection
// (leaf size far below the key count) with both pull and push repairs.
func TestSweeperBisectionRepairsDivergence(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var nodes []*testNode
	for _, a := range addrs {
		n := startTestNode(t, a, addrs, nodeOpts{noReplicator: true})
		defer n.stop()
		nodes = append(nodes, n)
	}
	byAddr := make(map[string]*testNode, len(nodes))
	for _, n := range nodes {
		byAddr[n.addr] = n
	}
	ring, err := NewRing(addrs, 0, testRingSeed)
	if err != nil {
		t.Fatal(err)
	}

	// want records the converged end state per key: value and sequence a
	// correct sweep must leave on every owner (tomb=true for deletions).
	type finalState struct {
		value uint64
		seq   uint64
		tomb  bool
	}
	want := make(map[uint64]finalState)
	apply := func(n *testNode, e wire.Entry) {
		if st := n.rep.ApplyPush([]wire.Entry{e}, nil); st[0] != wire.ApplyApplied {
			t.Fatalf("seeding key %d on %s: status %d", e.Key, n.addr, st[0])
		}
	}
	var owners []string
	for i := uint64(0); i < 200; i++ {
		key := i*0x9e3779b97f4a7c15 + 1
		owners = ring.Replicas(key, 2, owners[:0])
		a, b := byAddr[owners[0]], byAddr[owners[1]]
		seq := 1000 + i*10
		put := wire.Entry{Seq: seq, Op: wire.OpPut, Key: key, Value: key ^ seq}
		switch i % 4 {
		case 0: // present only on the first owner
			apply(a, put)
			want[key] = finalState{value: put.Value, seq: seq}
		case 1: // present only on the second owner
			apply(b, put)
			want[key] = finalState{value: put.Value, seq: seq}
		case 2: // both have it, one copy stale
			apply(a, put)
			apply(b, put)
			newer := wire.Entry{Seq: seq + 5, Op: wire.OpPut, Key: key, Value: put.Value + 1}
			apply(b, newer)
			want[key] = finalState{value: newer.Value, seq: seq + 5}
		default: // tombstone on one owner shadowing a live copy on the other
			apply(a, put)
			apply(b, wire.Entry{Seq: seq + 5, Op: wire.OpDel, Key: key})
			want[key] = finalState{seq: seq + 5, tomb: true}
		}
	}

	var sweepers []*Sweeper
	for _, n := range nodes {
		sweepers = append(sweepers, startSweeper(t, n, addrs, 8, nil))
	}
	for i, sw := range sweepers {
		if _, err := sw.SweepOnce(); err != nil {
			t.Fatalf("sweep from node %d: %v", i, err)
		}
	}

	for key, fs := range want {
		owners = ring.Replicas(key, 2, owners[:0])
		for _, addr := range owners {
			st, v, seq := byAddr[addr].rep.VGet(key)
			if fs.tomb {
				if st != wire.VStateTomb || seq != fs.seq {
					t.Fatalf("key %d on %s: state %d seq %d, want tomb at %d", key, addr, st, seq, fs.seq)
				}
			} else if st != wire.VStateLive || v != fs.value || seq != fs.seq {
				t.Fatalf("key %d on %s: state %d value %d seq %d, want live %d at %d",
					key, addr, st, v, seq, fs.value, fs.seq)
			}
		}
	}

	// Every owner pair must now agree on its shared key set: both sides'
	// ownership-filtered digests of the full key space are equal.
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			ad, ac, _ := a.rep.DigestRange(b.addr, 0, ^uint64(0), 1)
			bd, bc, _ := b.rep.DigestRange(a.addr, 0, ^uint64(0), 1)
			if ad != bd || ac != bc {
				t.Fatalf("pair (%s,%s) diverged after sweep: %x/%d vs %x/%d",
					a.addr, b.addr, ad, ac, bd, bc)
			}
		}
	}

	var pulled, pushed, mismatched int64
	for _, sw := range sweepers {
		st := sw.StatsSnapshot()
		pulled += st.KeysPulled
		pushed += st.KeysPushed
		mismatched += st.MismatchedRanges
		if st.RangesTruncated != 0 {
			t.Fatalf("sweep hit its range budget: %+v", st)
		}
		if st.Ranges <= st.Sweeps {
			t.Fatalf("leaf size 8 with 200 keys did not bisect: %+v", st)
		}
	}
	if pulled == 0 || pushed == 0 {
		t.Fatalf("expected both repair directions, got pulled=%d pushed=%d", pulled, pushed)
	}
	if mismatched == 0 {
		t.Fatal("no mismatched ranges recorded despite seeded divergence")
	}

	// A second full round finds nothing left to repair.
	for i, sw := range sweepers {
		if n, err := sw.SweepOnce(); err != nil || n != 0 {
			t.Fatalf("second sweep from node %d: repaired %d, err %v", i, n, err)
		}
	}
}

// TestSweeperBudgetTruncationIsCounted pins the no-silent-caps rule: a
// sweep that exhausts MaxRanges mid-bisection must report the ranges it
// never compared.
func TestSweeperBudgetTruncationIsCounted(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a := startTestNode(t, addrs[0], addrs, nodeOpts{noReplicator: true})
	defer a.stop()
	b := startTestNode(t, addrs[1], addrs, nodeOpts{noReplicator: true})
	defer b.stop()

	for i := uint64(0); i < 64; i++ {
		key := i*0x9e3779b97f4a7c15 + 1
		st := a.rep.ApplyPush([]wire.Entry{{Seq: 10 + i, Op: wire.OpPut, Key: key, Value: i}}, nil)
		if st[0] != wire.ApplyApplied {
			t.Fatalf("seeding key %d: status %d", key, st[0])
		}
	}

	cfg := SweeperConfig{
		Self: addrs[0], Nodes: addrs, Replicas: 2, Seed: testRingSeed,
		LeafKeys: 1, MaxRanges: 1, Logf: t.Logf,
	}
	sw, err := NewSweeper(a.rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if _, err := sw.SweepOnce(); err != nil {
		t.Fatal(err)
	}
	st := sw.StatsSnapshot()
	if st.RangesTruncated == 0 {
		t.Fatalf("budget of 1 range over 64 divergent keys reported no truncation: %+v", st)
	}
}

// TestSweeperBreakerSkipsDeadPeer checks the sweep loop's own degradation:
// a peer that keeps failing its sweeps trips a breaker and later sweeps
// skip it — counted, not silent — instead of paying a dial failure every
// interval.
func TestSweeperBreakerSkipsDeadPeer(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a := startTestNode(t, addrs[0], addrs, nodeOpts{noReplicator: true})
	defer a.stop()
	// addrs[1] is never started: every sweep of it fails at the dial.

	sw, err := NewSweeper(a.rep, SweeperConfig{
		Self: addrs[0], Nodes: addrs, Replicas: 2, Seed: testRingSeed,
		BreakerFailures: 2, BreakerProbe: time.Hour, Logf: t.Logf,
		Wire: wire.ClientConfig{DialTimeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	for i := 0; i < 5; i++ {
		if _, err := sw.SweepOnce(); err == nil {
			t.Fatalf("sweep %d of a dead peer reported success", i)
		}
		if sw.StatsSnapshot().Errors >= 2 {
			break
		}
	}
	st := sw.StatsSnapshot()
	if st.Errors != 2 {
		t.Fatalf("errors = %d before the breaker tripped, want 2", st.Errors)
	}
	// With the breaker open, further sweeps skip the peer entirely.
	for i := 0; i < 3; i++ {
		if _, err := sw.SweepOnce(); err != nil {
			t.Fatalf("sweep with open breaker still attempted the peer: %v", err)
		}
	}
	st = sw.StatsSnapshot()
	if st.Errors != 2 {
		t.Fatalf("errors grew to %d while the breaker was open", st.Errors)
	}
	if st.PeersSkipped != 3 {
		t.Fatalf("PeersSkipped = %d, want 3", st.PeersSkipped)
	}
}

// TestChaosPartitionWritesSurviveAndSweepHeals is the chaos drill (and the
// ci.sh short-mode smoke): under a seeded partition cutting the client off
// one node of a 2-node R=2 cluster, W=1 writes keep succeeding against the
// reachable replica and the victim's breaker trips so the dead peer is
// skipped instead of stalling each write; after the partition heals, one
// anti-entropy sweep — with read-repair provably uninvolved — drives both
// nodes' digests back to equality.
func TestChaosPartitionWritesSurviveAndSweepHeals(t *testing.T) {
	addrs := freeAddrs(t, 2)
	chaos := netchaos.New(0xC4A05)
	up := startTestNode(t, addrs[0], addrs, nodeOpts{noReplicator: true})
	defer up.stop()
	victim := startTestNode(t, addrs[1], addrs, nodeOpts{noReplicator: true})
	defer victim.stop()

	var seq atomic.Uint64
	c, err := New(Config{
		Nodes:       addrs,
		Replicas:    2,
		WriteQuorum: 1,
		Seed:        testRingSeed,
		OpTimeout:   2 * time.Second,
		// Threshold 2 so the drill observes the trip quickly; a probe
		// interval far beyond the test keeps the open state deterministic.
		BreakerFailures: 2,
		BreakerProbe:    time.Hour,
		Wire:            wire.ClientConfig{Dial: chaos.Dialer("client")},
		SeqSource:       func() uint64 { return seq.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Healthy phase: baseline writes reach both replicas (W=1 acks early,
	// so wait for the trailing pushes before judging convergence).
	for k := uint64(1); k <= 50; k++ {
		if err := c.Put(k, k*7); err != nil {
			t.Fatalf("baseline put %d: %v", k, err)
		}
	}
	waitFor(t, 5*time.Second, "baseline replication", func() bool {
		return up.rep.Digest() == victim.rep.Digest()
	})

	// Partition: the client loses the victim (one-way rule — the victim
	// could still reach out, it just never hears from this client again).
	chaos.PartitionOneWay("client", victim.addr)
	chaos.ResetConns("client", victim.addr)

	start := time.Now()
	for k := uint64(100); k < 150; k++ {
		if err := c.Put(k, k*7); err != nil {
			t.Fatalf("put %d during partition: %v", k, err)
		}
	}
	for k := uint64(1); k <= 5; k++ { // tombstone divergence
		if err := c.Del(k); err != nil {
			t.Fatalf("del %d during partition: %v", k, err)
		}
	}
	// 55 writes against a dead peer must cost nowhere near one OpTimeout:
	// the first failures are instant dial cuts, everything after the trip
	// is an instant breaker skip.
	if elapsed := time.Since(start); elapsed > c.cfg.OpTimeout {
		t.Fatalf("partition-phase writes took %v — breaker did not prevent stalls", elapsed)
	}
	// Degraded reads of undiverged keys still answer from the live side.
	for k := uint64(10); k <= 15; k++ {
		v, ok, err := c.Get(k)
		if err != nil || !ok || v != k*7 {
			t.Fatalf("get %d during partition: %d %v %v", k, v, ok, err)
		}
	}

	m := c.MetricsSnapshot()
	if m.QuorumFailures != 0 {
		t.Fatalf("QuorumFailures = %d during W=1 partition writes", m.QuorumFailures)
	}
	if m.BreakerTrips[victim.addr] == 0 {
		t.Fatal("victim breaker never tripped")
	}
	if m.BreakerSkips[victim.addr] == 0 {
		t.Fatal("open breaker never skipped a request")
	}
	if !m.BreakerOpen[victim.addr] {
		t.Fatal("victim breaker not reported open")
	}
	if m.DegradedReads == 0 {
		t.Fatal("partition-phase reads were not counted as degraded")
	}
	if up.rep.Digest() == victim.rep.Digest() {
		t.Fatal("partition produced no divergence")
	}

	// Heal, then converge by anti-entropy alone: the diverged keys are
	// never read through the client, so read-repair cannot be what heals
	// them — Repairs staying zero proves it. The client is closed first: a
	// W=1 push to the victim still running in the background would
	// otherwise land once the link heals and leave the sweep less to do.
	c.Close()
	chaos.HealAll()
	swVictim := startSweeper(t, victim, addrs, 16, chaos.Dialer(victim.addr))
	swUp := startSweeper(t, up, addrs, 16, chaos.Dialer(up.addr))
	_ = swVictim // installs the victim's digest filter; the up node drives
	repaired, err := swUp.SweepOnce()
	if err != nil {
		t.Fatalf("sweep after heal: %v", err)
	}
	if repaired != 55 {
		t.Fatalf("sweep repaired %d keys, want 55 (50 puts + 5 tombstones)", repaired)
	}
	st := swUp.StatsSnapshot()
	if st.KeysPushed != 55 || st.KeysPulled != 0 {
		t.Fatalf("expected 55 pushed / 0 pulled, got %+v", st)
	}
	if st.MismatchedRanges == 0 || st.RangesTruncated != 0 {
		t.Fatalf("unexpected range accounting: %+v", st)
	}
	if up.rep.Digest() != victim.rep.Digest() {
		t.Fatal("digests still diverged after sweep")
	}
	if n, err := swUp.SweepOnce(); err != nil || n != 0 {
		t.Fatalf("post-convergence sweep: repaired %d, err %v", n, err)
	}
	if got := c.MetricsSnapshot().Repairs; got != 0 {
		t.Fatalf("read-repair ran %d times — convergence is not attributable to the sweeper", got)
	}

	// The victim's copies match what the client wrote.
	for k := uint64(100); k < 150; k++ {
		if st, v, _ := victim.rep.VGet(k); st != wire.VStateLive || v != k*7 {
			t.Fatalf("victim key %d after sweep: state %d value %d", k, st, v)
		}
	}
	for k := uint64(1); k <= 5; k++ {
		if st, _, _ := victim.rep.VGet(k); st != wire.VStateTomb {
			t.Fatalf("victim key %d after sweep: state %d, want tombstone", k, st)
		}
	}
}
