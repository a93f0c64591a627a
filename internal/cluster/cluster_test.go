package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mccuckoo"
	"mccuckoo/internal/netchaos"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/wire"
)

const testRingSeed = 7

// testNode is one in-process cluster member, mirroring what
// cmd/mcserved -peers assembles.
type testNode struct {
	addr string
	rep  *wire.Replicated
	srv  *wire.Server
	r    *Replicator
}

type nodeOpts struct {
	oplogSize    int
	noReplicator bool
	// checkpoint, when set, restores the node's state before it serves —
	// the restart path a crashed mcserved takes.
	checkpoint string
	// trace, when set, is the node's flight recorder, threaded into both
	// the server and the replicator exactly as cmd/mcserved -trace does.
	trace *trace.Recorder
}

func startTestNode(t *testing.T, addr string, nodes []string, opt nodeOpts) *testNode {
	t.Helper()
	cfg := wire.ReplicaConfig{OplogSize: opt.oplogSize}
	var rep *wire.Replicated
	var err error
	if opt.checkpoint != "" {
		rep, err = wire.RestoreReplicated(opt.checkpoint, cfg)
	} else {
		var tab *mccuckoo.Sharded
		if tab, err = mccuckoo.NewSharded(1<<14, 8, mccuckoo.WithSeed(42)); err == nil {
			rep = wire.NewReplicated(tab, cfg)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(wire.Config{Store: rep, SubKeepalive: 50 * time.Millisecond, Trace: opt.trace})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	n := &testNode{addr: addr, rep: rep, srv: srv}
	if !opt.noReplicator {
		n.startReplicator(t, nodes, opt.trace)
	}
	return n
}

func (n *testNode) startReplicator(t *testing.T, nodes []string, tr *trace.Recorder) {
	t.Helper()
	var err error
	n.r, err = NewReplicator(n.rep, ReplicatorConfig{
		Self:      n.addr,
		Nodes:     nodes,
		Replicas:  2,
		Seed:      testRingSeed,
		RetryBase: 10 * time.Millisecond,
		RetryMax:  250 * time.Millisecond,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.r.Start()
}

func (n *testNode) stop() {
	if n.r != nil {
		n.r.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
}

// freeAddrs reserves n distinct loopback addresses so every node can know
// the full ring before any node is up. Every listener stays open until all
// n are picked: a port closed early can be handed out again.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterKillNodeConvergence is the tentpole scenario: a 3-node R=2
// cluster under mixed traffic loses a node mid-run with zero failed reads,
// keeps accepting writes and deletes, and the node restarted from its
// checkpoint converges back to byte-identical state via
// the op-log catch-up stream.
func TestClusterKillNodeConvergence(t *testing.T) {
	addrs := freeAddrs(t, 3)
	nodes := make([]*testNode, 3)
	for i, addr := range addrs {
		nodes[i] = startTestNode(t, addr, addrs, nodeOpts{})
	}
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()

	c, err := New(Config{Nodes: addrs, Replicas: 2, Seed: testRingSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const initial = 1500
	expected := make(map[uint64]uint64, initial)
	for k := uint64(1); k <= initial; k++ {
		if err := c.Put(k, k*7); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		expected[k] = k * 7
	}

	// Checkpoint node 0 so its restart exercises the checkpoint restore
	// path rather than a from-scratch sync.
	checkpoint := filepath.Join(t.TempDir(), "n0.ckpt")
	if err := nodes[0].rep.Checkpoint(checkpoint); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Mixed traffic spanning the kill: two writers and a deleter run while
	// the node goes down.
	var wg sync.WaitGroup
	var trafficErrs atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := uint64(initial + 1 + w*150); k <= uint64(initial+(w+1)*150); k++ {
				if err := c.Put(k, k*7); err != nil {
					trafficErrs.Add(1)
					t.Errorf("put %d during kill window: %v", k, err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(1); k <= 100; k++ {
			if err := c.Del(k); err != nil {
				trafficErrs.Add(1)
				t.Errorf("del %d during kill window: %v", k, err)
			}
		}
	}()

	time.Sleep(10 * time.Millisecond)
	nodes[0].stop()

	// Every key still has a live replica: the full sweep over the untouched
	// key range must not fail a single read.
	failed := 0
	for k := uint64(101); k <= initial; k++ {
		v, found, err := c.Get(k)
		if err != nil || !found || v != k*7 {
			failed++
		}
	}
	if failed != 0 {
		t.Fatalf("%d failed reads with one node down, want 0", failed)
	}
	wg.Wait()
	if trafficErrs.Load() != 0 {
		t.Fatalf("%d writes/deletes failed during the kill window", trafficErrs.Load())
	}
	for k := uint64(initial + 1); k <= initial+300; k++ {
		expected[k] = k * 7
	}
	deleted := make([]uint64, 0, 100)
	for k := uint64(1); k <= 100; k++ {
		delete(expected, k)
		deleted = append(deleted, k)
	}

	// Restart node 0 from its checkpoint; the op-log subscriptions resume
	// from the checkpoint's drained point and replay what it missed.
	nodes[0] = startTestNode(t, addrs[0], addrs, nodeOpts{checkpoint: checkpoint})

	ring := c.Ring()
	owned := func(k uint64) bool { return ring.Owns(addrs[0], k, 2) }
	waitFor(t, 15*time.Second, "restarted node to converge", func() bool {
		for k, v := range expected {
			if !owned(k) {
				continue
			}
			if st, got, _ := nodes[0].rep.VGet(k); st != wire.VStateLive || got != v {
				return false
			}
		}
		for _, k := range deleted {
			if !owned(k) {
				continue
			}
			if st, _, _ := nodes[0].rep.VGet(k); st != wire.VStateTomb {
				return false
			}
		}
		return true
	})

	// The whole cluster agrees through the client.
	for k, v := range expected {
		got, found, err := c.Get(k)
		if err != nil || !found || got != v {
			t.Fatalf("converged get %d: %d,%v,%v want %d,true", k, got, found, err, v)
		}
	}
	for _, k := range deleted {
		if _, found, err := c.Get(k); err != nil || found {
			t.Fatalf("deleted key %d still visible (found=%v err=%v)", k, found, err)
		}
	}

	st := nodes[0].rep.ReplicaStats()
	if st.EntriesApplied == 0 {
		t.Error("restarted node applied no streamed entries")
	}
	// The lag gauge must drain to zero even though node 0 owns only a
	// subset of the keyspace (lag counts streamed entries, not applied).
	waitFor(t, 5*time.Second, "replica lag to drain", func() bool {
		return nodes[0].r.MaxLag() == 0
	})
	m := c.MetricsSnapshot()
	if m.ReadErrors == 0 {
		t.Error("no per-replica read errors recorded despite a dead node")
	}
	var b strings.Builder
	if err := nodes[0].r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mccuckoo_peer_replica_lag", "mccuckoo_peer_entries_applied_total"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("replicator metrics missing %s", want)
		}
	}
	b.Reset()
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mccuckoo_cluster_read_repairs_total") {
		t.Error("client metrics missing mccuckoo_cluster_read_repairs_total")
	}
}

// TestClusterReadRepair creates sequence skew directly (no replicators
// running, so only the client can heal) and verifies a read answers from
// the newest copy and pushes it back to the stale replica — for both live
// values and tombstones.
func TestClusterReadRepair(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a := startTestNode(t, addrs[0], addrs, nodeOpts{noReplicator: true})
	b := startTestNode(t, addrs[1], addrs, nodeOpts{noReplicator: true})
	defer a.stop()
	defer b.stop()

	var ctr atomic.Uint64
	c, err := New(Config{
		Nodes:     addrs,
		Replicas:  2,
		Seed:      testRingSeed,
		SeqSource: func() uint64 { return ctr.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = 12345
	if err := c.Put(key, 100); err != nil {
		t.Fatal(err)
	}

	// Skew: a newer value lands on node A only (as if A alone survived a
	// partition during the write).
	wa, err := wire.Dial(wire.ClientConfig{Addr: addrs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer wa.Close()
	if _, err := wa.Replicate(trace.Context{}, 1000, []wire.Entry{{Seq: 1000, Op: wire.OpPut, Key: key, Value: 999}}); err != nil {
		t.Fatal(err)
	}

	v, found, err := c.Get(key)
	if err != nil || !found || v != 999 {
		t.Fatalf("get after skew: %d,%v,%v want 999,true", v, found, err)
	}
	if got := c.MetricsSnapshot().Repairs; got != 1 {
		t.Fatalf("repairs = %d, want 1", got)
	}
	// The stale replica now holds the winning copy at the winning seq.
	if st, bv, seq := b.rep.VGet(key); st != wire.VStateLive || bv != 999 || seq != 1000 {
		t.Fatalf("repaired replica: state=%d value=%d seq=%d, want live 999 @1000", st, bv, seq)
	}

	// Tombstones repair the same way.
	if _, err := wa.Replicate(trace.Context{}, 2000, []wire.Entry{{Seq: 2000, Op: wire.OpDel, Key: key}}); err != nil {
		t.Fatal(err)
	}
	if _, found, err := c.Get(key); err != nil || found {
		t.Fatalf("get after skewed delete: found=%v err=%v", found, err)
	}
	if got := c.MetricsSnapshot().Repairs; got != 2 {
		t.Fatalf("repairs = %d, want 2", got)
	}
	if st, _, seq := b.rep.VGet(key); st != wire.VStateTomb || seq != 2000 {
		t.Fatalf("repaired tombstone: state=%d seq=%d, want tomb @2000", st, seq)
	}
}

// TestClusterCallZeroAlloc: a warm cluster Put, Get and Del on a two-node
// loopback cluster allocate nothing, at W=1 and at W=2. AllocsPerRun
// counts the whole process: the fan-out, both peer connections, both
// servers, and at W=1 the leg that completes after the call returned.
func TestClusterCallZeroAlloc(t *testing.T) {
	addrs := freeAddrs(t, 2)
	for _, addr := range addrs {
		n := startTestNode(t, addr, addrs, nodeOpts{noReplicator: true})
		defer n.stop()
	}
	for _, w := range []int{1, 2} {
		c, err := New(Config{Nodes: addrs, Replicas: 2, WriteQuorum: w, Seed: testRingSeed, Wire: wire.ClientConfig{Conns: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, tc := range []struct {
			name string
			call func() error
		}{
			{"Put", func() error { return c.Put(7, 7) }},
			{"Get", func() error {
				if v, ok, err := c.Get(7); err != nil || !ok || v != 7 {
					return fmt.Errorf("got %d, %v, %v", v, ok, err)
				}
				return nil
			}},
			{"Del", func() error { return c.Del(1 << 40) }},
		} {
			var bad error
			// A W=1 write returns at its first ack, and its second leg
			// completes into its fan later. AllocsPerRun runs at GOMAXPROCS
			// 1, where the scheduler may run many calls before the slower
			// replica's reader, and each call still out holds a fan of its
			// own. So a call ends once its fan is back in the pool: the late
			// leg's work is counted, and every call finds an idle fan. A call
			// that found the pool empty made a fan, and waits for one.
			call := func() {
				idle := max(len(c.fans), 1)
				if err := tc.call(); err != nil {
					bad = err
				}
				for len(c.fans) < idle {
					runtime.Gosched()
				}
			}
			for i := 0; i < 8; i++ {
				call() // dial and size the steady-state buffers
			}
			n := testing.AllocsPerRun(200, call)
			if bad != nil {
				t.Fatalf("W=%d %s: %v", w, tc.name, bad)
			}
			if n != 0 {
				t.Errorf("W=%d %s: %v allocs per call, want 0", w, tc.name, n)
			}
		}
	}
}

// TestChaosSilentPeerTripsBreaker: a peer that never answers, or whose
// dial hangs, costs a call at most OpTimeout and trips its breaker, after
// which calls skip it without waiting. R=2, W=1 and ReadFanout 2 over two
// nodes, so every read consults the dead peer until its breaker opens and
// is answered, degraded, by the live one.
func TestChaosSilentPeerTripsBreaker(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		for {
			nc, err := silent.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				io.Copy(io.Discard, nc) // reads every request, answers none
			}()
		}
	}()
	addrs := []string{freeAddrs(t, 1)[0], silent.Addr().String()}
	live := startTestNode(t, addrs[0], addrs, nodeOpts{noReplicator: true})
	defer live.stop()
	dead := addrs[1]
	newClient := func(dial func(string, time.Duration) (net.Conn, error)) *Client {
		c, err := New(Config{
			Nodes: addrs, Replicas: 2, WriteQuorum: 1, ReadFanout: 2, Seed: testRingSeed,
			OpTimeout: 300 * time.Millisecond, BreakerFailures: 3, BreakerProbe: time.Hour,
			Wire: wire.ClientConfig{Conns: 1, Dial: dial},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	hangingDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		if addr == dead {
			time.Sleep(time.Second)
			return nil, errors.New("dial hung")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	t.Run("silent_peer", func(t *testing.T) { drillDeadPeer(t, newClient(nil), dead, 1) })
	t.Run("hanging_dial_1_caller", func(t *testing.T) { drillDeadPeer(t, newClient(hangingDial), dead, 1) })
	t.Run("hanging_dial_4_callers", func(t *testing.T) { drillDeadPeer(t, newClient(hangingDial), dead, 4) })
}

// TestChaosSlowPeerDoesNotDelayCalls: every write on the link to one
// replica is delayed by a second, past OpTimeout. A W=1 Put is still
// answered in the fast replica's round trip when the slow replica comes
// first in ring order, because a call only buffers its requests for each
// connection's writer; a Get waits for the slow replica at most OpTimeout;
// the slow peer's breaker trips, after which calls skip it.
func TestChaosSlowPeerDoesNotDelayCalls(t *testing.T) {
	addrs := freeAddrs(t, 2)
	for _, addr := range addrs {
		n := startTestNode(t, addr, addrs, nodeOpts{noReplicator: true})
		defer n.stop()
	}
	chaos := netchaos.New(0x510e)
	c, err := New(Config{
		Nodes: addrs, Replicas: 2, WriteQuorum: 1, ReadFanout: 2, Seed: testRingSeed,
		OpTimeout: 300 * time.Millisecond, BreakerFailures: 3, BreakerProbe: time.Hour,
		Wire: wire.ClientConfig{Conns: 1, Dial: chaos.Dialer("client")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slow := addrs[1]
	var keys []uint64 // keys whose first replica is the slow one
	for k := uint64(1); len(keys) < 5; k++ {
		if c.Ring().Replicas(k, 2, nil)[0] == slow {
			keys = append(keys, k)
		}
	}
	// A Get waits for both replicas, so both connections are up and idle
	// before the link slows down.
	if _, _, err := c.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
	chaos.SetLink("client", slow, netchaos.Profile{Latency: time.Second})

	fast := c.cfg.OpTimeout / 3 // far above a loopback round trip
	timed := func(what string, k uint64, limit time.Duration, call func() error) {
		start := time.Now()
		err := call()
		if d := time.Since(start); d > limit {
			t.Errorf("%s %d took %v, want at most %v", what, k, d, limit)
		}
		if err != nil {
			t.Errorf("%s %d: %v", what, k, err)
		}
	}
	put := func(k uint64) func() error { return func() error { return c.Put(k, k*7) } }
	get := func(k uint64) func() error {
		return func() error {
			if v, ok, err := c.Get(k); err != nil || !ok || v != k*7 {
				return fmt.Errorf("got %d, %v, %v; want %d", v, ok, err, k*7)
			}
			return nil
		}
	}
	for _, k := range keys {
		timed("put", k, fast, put(k))
	}
	// The first Get's slow leg fails at OpTimeout, after the five Puts'
	// slow legs, so the breaker has tripped by the time it returns.
	timed("first get", keys[0], c.cfg.OpTimeout+200*time.Millisecond, get(keys[0]))
	m := c.MetricsSnapshot()
	if m.BreakerTrips[slow] != 1 || !m.BreakerOpen[slow] {
		t.Fatalf("slow peer's breaker: %d trips, open %v; want 1 trip and open", m.BreakerTrips[slow], m.BreakerOpen[slow])
	}
	for _, k := range keys[1:] {
		timed("get", k, fast, get(k))
	}
	if m := c.MetricsSnapshot(); m.DegradedReads != int64(len(keys)) || m.BreakerSkips[slow] < int64(len(keys)-1) {
		t.Fatalf("%d degraded reads and %d breaker skips, want %d and at least %d", m.DegradedReads, m.BreakerSkips[slow], len(keys), len(keys)-1)
	}
}

// drillDeadPeer runs callers goroutines, each making five Puts and then
// five Gets of its own keys, against a cluster in which dead never answers.
func drillDeadPeer(t *testing.T, c *Client, dead string, callers int) {
	limit := c.cfg.OpTimeout + 200*time.Millisecond
	timed := func(what string, k uint64, call func() error) time.Duration {
		start := time.Now()
		err := call()
		d := time.Since(start)
		if err != nil {
			t.Errorf("%s %d: %v", what, k, err)
		}
		if d > limit {
			t.Errorf("%s %d took %v, want at most OpTimeout plus slack, %v", what, k, d, limit)
		}
		return d
	}
	put := func(k uint64) func() error { return func() error { return c.Put(k, k*7) } }
	get := func(k uint64) func() error {
		return func() error {
			if v, ok, err := c.Get(k); err != nil || !ok || v != k*7 {
				return fmt.Errorf("got %d, %v, %v; want %d", v, ok, err, k*7)
			}
			return nil
		}
	}
	var wg sync.WaitGroup
	for g := uint64(0); g < uint64(callers); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g*100 + 1; k <= g*100+5; k++ {
				timed("put", k, put(k))
			}
			for k := g*100 + 1; k <= g*100+5; k++ {
				timed("get", k, get(k))
			}
		}()
	}
	wg.Wait()
	m := c.MetricsSnapshot()
	if m.BreakerTrips[dead] != 1 || !m.BreakerOpen[dead] {
		t.Fatalf("dead peer's breaker: %d trips, open %v; want 1 trip and open", m.BreakerTrips[dead], m.BreakerOpen[dead])
	}
	if m.DegradedReads != int64(5*callers) || m.ReadErrors != int64(5*callers) {
		t.Fatalf("%d degraded reads and %d read errors, want %d each", m.DegradedReads, m.ReadErrors, 5*callers)
	}
	// The open breaker skips the dead peer: no call waits on it.
	for _, call := range []func() error{put(1), get(1)} {
		if d := timed("call after the trip on key", 1, call); d > c.cfg.OpTimeout/2 {
			t.Errorf("a call with the breaker open took %v", d)
		}
	}
	if got := c.MetricsSnapshot().BreakerSkips[dead]; got < m.BreakerSkips[dead]+2 {
		t.Fatalf("breaker skips %d after two more calls, want at least %d", got, m.BreakerSkips[dead]+2)
	}
}

// TestClusterBootstrapFullSync starts a node from nothing against a peer
// whose op log no longer reaches back to sequence zero: the subscription
// must fall back to a full state dump, after which both nodes (each owning
// every key at R=2 over two nodes) carry identical state digests.
func TestClusterBootstrapFullSync(t *testing.T) {
	addrs := freeAddrs(t, 2)
	// Node A's tiny op log guarantees the 100 writes below overrun it.
	a := startTestNode(t, addrs[0], addrs, nodeOpts{oplogSize: 8})
	defer a.stop()

	var ctr atomic.Uint64
	c, err := New(Config{
		Nodes:     addrs,
		Replicas:  2,
		Seed:      testRingSeed,
		SeqSource: func() uint64 { return ctr.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Node B is down; W=1 keeps the writes available on A alone.
	for k := uint64(1); k <= 100; k++ {
		if err := c.Put(k, k*3); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}

	b := startTestNode(t, addrs[1], addrs, nodeOpts{})
	defer b.stop()
	waitFor(t, 10*time.Second, "bootstrap node to converge", func() bool {
		return b.rep.Digest() == a.rep.Digest() && b.rep.ReplicaStats().TrackedKeys == 100
	})

	for k := uint64(1); k <= 100; k++ {
		if st, v, _ := b.rep.VGet(k); st != wire.VStateLive || v != k*3 {
			t.Fatalf("bootstrapped key %d: state=%d value=%d", k, st, v)
		}
	}
	if got := a.rep.ReplicaStats().FullSyncs; got < 1 {
		t.Errorf("peer served %d full syncs, want >= 1", got)
	}
	if got := b.r.peerStates[addrs[0]].fullSyncs.Load(); got < 1 {
		t.Errorf("bootstrap node recorded %d full syncs, want >= 1", got)
	}
}

// TestClusterBootstrapIgnoresPushedSeq covers a race in the bootstrap
// scenario above: a client push still in flight when the new node comes up
// can land before its replicator subscribes. The node then holds one key at
// the newest sequence number and none of the keys below it, so its
// subscription must not resume from that sequence number: the peer has to
// answer with a full dump.
func TestClusterBootstrapIgnoresPushedSeq(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a := startTestNode(t, addrs[0], addrs, nodeOpts{oplogSize: 8, noReplicator: true})
	defer a.stop()
	for k := uint64(1); k <= 100; k++ {
		a.rep.ApplyPush([]wire.Entry{{Seq: k, Op: wire.OpPut, Key: k, Value: k * 3}}, nil)
	}

	b := startTestNode(t, addrs[1], addrs, nodeOpts{noReplicator: true})
	defer b.stop()
	b.rep.ApplyPush([]wire.Entry{{Seq: 100, Op: wire.OpPut, Key: 100, Value: 300}}, nil)
	b.startReplicator(t, addrs, nil)
	waitFor(t, 10*time.Second, "bootstrap node to converge", func() bool {
		return b.rep.Digest() == a.rep.Digest() && b.rep.ReplicaStats().TrackedKeys == 100
	})
	if got := b.r.peerStates[addrs[0]].fullSyncs.Load(); got != 1 {
		t.Errorf("bootstrap node recorded %d full syncs, want 1", got)
	}
}

// TestClusterCatchUpAfterBurst overruns a live subscription: node B is
// subscribed to node A when one push of 100 entries goes through A's
// 8-entry ring. A catches B up in place on the same connection, so B
// connects once, takes no full sync, and converges.
func TestClusterCatchUpAfterBurst(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a := startTestNode(t, addrs[0], addrs, nodeOpts{oplogSize: 8, noReplicator: true})
	defer a.stop()
	b := startTestNode(t, addrs[1], addrs, nodeOpts{})
	defer b.stop()
	waitFor(t, 10*time.Second, "node B to subscribe", func() bool {
		return a.rep.ReplicaStats().Subscribers == 1
	})

	burst := make([]wire.Entry, 100)
	for i := range burst {
		k := uint64(i + 1)
		burst[i] = wire.Entry{Seq: k, Op: wire.OpPut, Key: k, Value: k * 3}
	}
	a.rep.ApplyPush(burst, nil)
	waitFor(t, 10*time.Second, "node B to converge", func() bool {
		return b.rep.Digest() == a.rep.Digest() && b.rep.ReplicaStats().TrackedKeys == 100
	})
	st := b.r.peerStates[addrs[0]]
	if c, f := st.connects.Load(), st.fullSyncs.Load(); c != 1 || f != 0 {
		t.Errorf("node B connected %d times and took %d full syncs, want 1 and 0", c, f)
	}
	if got := a.rep.ReplicaStats().CatchUps; got < 1 {
		t.Errorf("node A served %d catch-ups, want at least 1", got)
	}
}

// TestClusterRestartResumesFromDrainedPoint restarts a node from a
// checkpoint taken after a push ran ahead of its stream. Node B holds only
// key 100 at sequence 100, pushed before its replicator ever ran, while node
// A holds keys 1..100 at sequences 1..100 in an 8-entry ring. B's checkpoint
// records applied 100 but drained 0, so the restarted B resumes from 0,
// takes A's full dump and converges with no sweeper. Resuming from the
// applied 100 would replay only sequences 93..100.
func TestClusterRestartResumesFromDrainedPoint(t *testing.T) {
	dir := t.TempDir()
	checkpoint := filepath.Join(dir, "b.ckpt")
	addrs := freeAddrs(t, 2)
	a := startTestNode(t, addrs[0], addrs, nodeOpts{oplogSize: 8, noReplicator: true})
	defer a.stop()
	for k := uint64(1); k <= 100; k++ {
		a.rep.ApplyPush([]wire.Entry{{Seq: k, Op: wire.OpPut, Key: k, Value: k * 3}}, nil)
	}

	b := startTestNode(t, addrs[1], addrs, nodeOpts{noReplicator: true})
	b.rep.ApplyPush([]wire.Entry{{Seq: 100, Op: wire.OpPut, Key: 100, Value: 300}}, nil)
	if err := b.rep.Checkpoint(checkpoint); err != nil {
		t.Fatal(err)
	}
	b.stop()

	b = startTestNode(t, addrs[1], addrs, nodeOpts{checkpoint: checkpoint})
	defer b.stop()
	waitFor(t, 10*time.Second, "restarted node to converge", func() bool {
		return b.rep.Digest() == a.rep.Digest() && b.rep.ReplicaStats().TrackedKeys == 100
	})
}

// TestDefaultClientsDrawIDs checks that default clients stamp their
// sequence numbers with an id drawn per client: clients that share an id
// and write in the same millisecond mint equal sequence numbers, and two
// replicas that receive two equal-sequence PUTs in opposite orders keep
// different values. A fresh client's first sequence number carries its id
// in bits 14–21.
func TestDefaultClientsDrawIDs(t *testing.T) {
	ids := map[uint64]bool{}
	for range 32 {
		c, err := New(Config{Nodes: []string{"127.0.0.1:1", "127.0.0.1:2"}})
		if err != nil {
			t.Fatal(err)
		}
		ids[c.nextSeqs(1)>>14&0xff] = true
		c.Close()
	}
	if len(ids) < 2 {
		t.Fatalf("32 default clients all stamp id %v", ids)
	}
}

// TestClusterPutBatch checks PutBatch's routing, sequencing and errors on
// in-process nodes with no replicators, so every copy a node holds came
// from the batch's own pushes.
func TestClusterPutBatch(t *testing.T) {
	batch := func(lo, n uint64) (keys, values []uint64) {
		for k := lo; k < lo+n; k++ {
			keys, values = append(keys, k), append(values, k*3)
		}
		return keys, values
	}

	// At R=2 of 3 nodes each node holds exactly the keys the ring assigns
	// it; at R=2 of 2 nodes both hold every key.
	for _, n := range []int{3, 2} {
		t.Run(fmt.Sprintf("R=2 of %d nodes", n), func(t *testing.T) {
			addrs := freeAddrs(t, n)
			nodes := make([]*testNode, n)
			for i, addr := range addrs {
				nodes[i] = startTestNode(t, addr, addrs, nodeOpts{noReplicator: true})
				defer nodes[i].stop()
			}
			c, err := New(Config{Nodes: addrs, Replicas: 2, Seed: testRingSeed})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			keys, values := batch(1, 2000)
			if err := c.PutBatch(keys, values); err != nil {
				t.Fatal(err)
			}
			held := make([]int, n)
			for _, k := range keys {
				owners := c.Ring().Replicas(k, 2, nil)
				for i, nd := range nodes {
					st, v, _ := nd.rep.VGet(k)
					if owns := slices.Contains(owners, nd.addr); owns != (st == wire.VStateLive) || owns && v != k*3 {
						t.Fatalf("node %s, key %d: state %d value %d; owners %v", nd.addr, k, st, v, owners)
					}
					if st == wire.VStateLive {
						held[i]++
					}
				}
			}
			for i, nd := range nodes {
				if got := nd.rep.ReplicaStats().TrackedKeys; got != held[i] || n == 2 && got != len(keys) {
					t.Errorf("node %s tracks %d keys, holds %d of %d", nd.addr, got, held[i], len(keys))
				}
			}
		})
	}

	t.Run("sequence numbers", func(t *testing.T) {
		addrs := freeAddrs(t, 2)
		a := startTestNode(t, addrs[0], addrs, nodeOpts{noReplicator: true})
		defer a.stop()
		defer startTestNode(t, addrs[1], addrs, nodeOpts{noReplicator: true}).stop()
		var clock, calls atomic.Uint64
		// W=2: a Put returns once both nodes applied it.
		c, err := New(Config{
			Nodes:       addrs,
			Replicas:    2,
			WriteQuorum: 2,
			Seed:        testRingSeed,
			SeqSource: func() uint64 {
				calls.Add(1)
				return clock.Load()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		seqOf := func(k uint64) uint64 {
			_, _, seq := a.rep.VGet(k)
			return seq
		}

		// Each step sets the clock, then writes; want is the first sequence
		// number the step must get: the clock, or one past the last number
		// issued when the clock stands still or ran backwards.
		steps := []struct {
			clock, want uint64
			lo, n       uint64 // n == 0: a single Put of key lo
		}{
			{clock: 1000, want: 1000, lo: 1, n: 300},
			{clock: 1000, want: 1300, lo: 9001},
			{clock: 5000, want: 5000, lo: 301, n: 300},
			{clock: 10, want: 5300, lo: 601, n: 50},
			{clock: 10, want: 5350, lo: 9002},
			{clock: 9000, want: 9000, lo: 651, n: 1},
		}
		for i, s := range steps {
			clock.Store(s.clock)
			if s.n == 0 {
				if err := c.Put(s.lo, 1); err != nil {
					t.Fatal(err)
				}
				if got := seqOf(s.lo); got != s.want {
					t.Fatalf("step %d: Put got sequence number %d, want %d", i, got, s.want)
				}
			} else {
				keys, values := batch(s.lo, s.n)
				if err := c.PutBatch(keys, values); err != nil {
					t.Fatal(err)
				}
				for j, k := range keys {
					if got := seqOf(k); got != s.want+uint64(j) {
						t.Fatalf("step %d: entry %d got sequence number %d, want %d", i, j, got, s.want+uint64(j))
					}
				}
			}
			if got := calls.Load(); got != uint64(i+1) {
				t.Fatalf("after step %d the sequence source was called %d times, want %d", i, got, i+1)
			}
		}

		if err := c.PutBatch(nil, nil); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
		if got := calls.Load(); got != uint64(len(steps)) {
			t.Errorf("an empty batch called the sequence source: %d calls, want %d", got, len(steps))
		}
	})

	// A node whose table is full fails the keys it cannot take; at W=2
	// they miss their quorum, and the error names the node and each key.
	t.Run("full table", func(t *testing.T) {
		addrs := freeAddrs(t, 2)
		defer startTestNode(t, addrs[0], addrs, nodeOpts{noReplicator: true}).stop()
		tab, err := mccuckoo.New(8, mccuckoo.WithSeed(3), mccuckoo.WithStashLimit(1))
		if err != nil {
			t.Fatal(err)
		}
		small := wire.NewReplicated(mccuckoo.NewConcurrent(tab), wire.ReplicaConfig{})
		srv, err := wire.NewServer(wire.Config{Store: small})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		c, err := New(Config{Nodes: addrs, Replicas: 2, WriteQuorum: 2, Seed: testRingSeed})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		keys, values := batch(1, 64)
		err = c.PutBatch(keys, values)
		if !errors.Is(err, ErrNoQuorum) || !errors.Is(err, errTableFull) {
			t.Fatalf("PutBatch into a full table: %v, want a quorum failure for a full table", err)
		}
		// A failed insert leaves the table as it was, so the keys the
		// small table lacks are the ones it failed.
		failed := 0
		for _, k := range keys {
			if _, ok := small.Lookup(k); ok {
				continue
			}
			if failed++; failed == 1 && !strings.Contains(err.Error(), fmt.Sprintf("(1/2 acks for key %d)", k)) {
				t.Errorf("error does not name %d, the first key short of its quorum: %v", k, err)
			}
			if want := fmt.Sprintf("%s: %v (key %d)", addrs[1], errTableFull, k); !strings.Contains(err.Error(), want) {
				t.Errorf("error lacks %q: %v", want, err)
			}
		}
		if failed == 0 || failed == len(keys) {
			t.Fatalf("the small table took %d of %d keys", len(keys)-failed, len(keys))
		}
	})
}
