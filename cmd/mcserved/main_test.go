package main

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mccuckoo"
	"mccuckoo/internal/cluster"
	"mccuckoo/internal/wire"
)

// startServed runs run() in-process with a pipe on stdout and returns a
// channel of stdout lines plus the run error channel.
func startServed(t *testing.T, args ...string) (lines chan string, errCh chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	lines = make(chan string, 32)
	errCh = make(chan error, 1)
	go func() {
		err := run(args, pw)
		pw.Close()
		errCh <- err
	}()
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	return lines, errCh
}

// waitLine returns the first stdout line with the given prefix.
func waitLine(t *testing.T, lines chan string, prefix string) string {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("stdout closed before %q line", prefix)
			}
			if strings.HasPrefix(l, prefix) {
				return l
			}
		case <-deadline:
			t.Fatalf("no %q line within deadline", prefix)
		}
	}
}

func sigtermSelf(t *testing.T) {
	t.Helper()
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

// TestServeAndDrain boots mcserved in-process, talks to it with the wire
// client, scrapes the combined /metrics exposition, and verifies a SIGTERM
// drains cleanly.
func TestServeAndDrain(t *testing.T) {
	lines, errCh := startServed(t,
		"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		"-kind", "sharded", "-capacity", "8192", "-shards", "4",
	)
	murl := strings.TrimPrefix(waitLine(t, lines, "metrics on "), "metrics on ")
	addr := strings.Fields(strings.TrimPrefix(waitLine(t, lines, "listening on "), "listening on "))[0]

	c, err := wire.Dial(wire.ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r, err := c.Put(42, 4242); err != nil || r.Status != mccuckoo.Placed {
		t.Fatalf("put: %+v, %v", r, err)
	}
	if v, ok, err := c.Get(42); err != nil || !ok || v != 4242 {
		t.Fatalf("get: %d, %v, %v", v, ok, err)
	}
	st, err := c.Stats()
	if err != nil || st.Len != 1 {
		t.Fatalf("stats: %+v, %v", st, err)
	}

	resp, err := http.Get(murl)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"mccuckoo_items", "mccuckoo_server_requests_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}

	sigtermSelf(t)
	waitLine(t, lines, "drained")
	if err := <-errCh; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestSnapshotRoundTrip: a SIGTERM shutdown with -snapshot persists the
// table, and a restart with -load serves the same data.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "table.snap")

	lines, errCh := startServed(t,
		"-addr", "127.0.0.1:0", "-kind", "single", "-capacity", "4096",
		"-snapshot", snap,
	)
	addr := strings.Fields(strings.TrimPrefix(waitLine(t, lines, "listening on "), "listening on "))[0]
	c, err := wire.Dial(wire.ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 100)
	vals := make([]uint64, 100)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), uint64(i)*11
	}
	if _, err := c.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	c.Close()
	sigtermSelf(t)
	if err := <-errCh; err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	// -load sniffs the kind and would accept a sharded container too; the
	// single-slot loader pins the format to the table's own snapshot.
	if tab, err := mccuckoo.LoadFile(snap); err != nil {
		t.Fatalf("-kind single snapshot is not a single-slot snapshot: %v", err)
	} else if tab.Len() != len(keys) {
		t.Fatalf("snapshot holds %d items, want %d", tab.Len(), len(keys))
	}

	lines, errCh = startServed(t, "-addr", "127.0.0.1:0", "-load", snap)
	addr = strings.Fields(strings.TrimPrefix(waitLine(t, lines, "listening on "), "listening on "))[0]
	c, err = wire.Dial(wire.ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	gv, gf, err := c.GetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !gf[i] || gv[i] != vals[i] {
			t.Fatalf("restored key %d: %d,%v want %d,true", keys[i], gv[i], gf[i], vals[i])
		}
	}
	c.Close()
	sigtermSelf(t)
	if err := <-errCh; err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestClusterServe boots a 3-node mcserved cluster with -peers, drives it
// through the cluster client, and verifies the replication metrics are on
// /metrics before a single SIGTERM drains all three nodes.
func TestClusterServe(t *testing.T) {
	addrs := freePorts(t, 3)
	lineChans := make([]chan string, 3)
	errChans := make([]chan error, 3)
	for i, addr := range addrs {
		var peers []string
		for j, p := range addrs {
			if j != i {
				peers = append(peers, p)
			}
		}
		lineChans[i], errChans[i] = startServed(t,
			"-addr", addr, "-metrics", "127.0.0.1:0",
			"-kind", "sharded", "-capacity", "8192", "-shards", "4", "-seed", "42",
			"-peers", strings.Join(peers, ","), "-replicas", "2",
		)
	}
	var murl string
	for i := range addrs {
		if i == 0 {
			murl = strings.TrimPrefix(waitLine(t, lineChans[i], "metrics on "), "metrics on ")
		}
		waitLine(t, lineChans[i], "replicating with peers ")
		waitLine(t, lineChans[i], "listening on ")
	}

	c, err := cluster.New(cluster.Config{Nodes: addrs, Replicas: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		if err := c.Put(k, k*5); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for k := uint64(1); k <= 200; k++ {
		if v, found, err := c.Get(k); err != nil || !found || v != k*5 {
			t.Fatalf("get %d: %d,%v,%v", k, v, found, err)
		}
	}
	c.Close()

	resp, err := http.Get(murl)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"mccuckoo_replica_applied_seq", "mccuckoo_replica_catch_ups_total", "mccuckoo_peer_replica_lag", "mccuckoo_server_subscriptions_active"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}

	sigtermSelf(t)
	for i := range errChans {
		if err := <-errChans[i]; err != nil {
			t.Fatalf("node %d run: %v", i, err)
		}
	}
}

// freePorts picks n loopback addresses for nodes to re-bind. Each port is
// closed only once all are picked: a port closed early can be handed out
// again.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// replicaStats reads the STATS replica section of the node at addr.
func replicaStats(t *testing.T, addr string) wire.ReplicaStats {
	t.Helper()
	c, err := wire.Dial(wire.ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil || st.Replica == nil {
		t.Fatalf("stats: %+v, %v; want a replica section", st, err)
	}
	return *st.Replica
}

// TestReplicatedRestart stops a replicated node with SIGTERM, which writes
// its final checkpoint to -snapshot, and restarts it with -load on that
// one file: it reads back every key, and its STATS replica section carries
// the applied and drained points the checkpoint holds. A damaged
// checkpoint stops the node from starting, naming the file. A plain
// sharded snapshot given to -load with -peers loads under fresh
// bookkeeping at the seeded sequence, the full-resync path of a values
// file an older node saved.
func TestReplicatedRestart(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "a.ckpt")
	addrs := freePorts(t, 2)
	lineChans := make([]chan string, 2)
	errChans := make([]chan error, 2)
	for i, addr := range addrs {
		args := []string{"-addr", addr, "-capacity", "8192", "-shards", "4", "-seed", "42",
			"-peers", addrs[1-i], "-replicas", "2"}
		if i == 0 {
			args = append(args, "-snapshot", ckpt)
		}
		lineChans[i], errChans[i] = startServed(t, args...)
	}
	for i := range addrs {
		waitLine(t, lineChans[i], "listening on ")
	}
	c, err := cluster.New(cluster.Config{Nodes: addrs, Replicas: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i + 1)
		if err := c.Put(keys[i], keys[i]*7); err != nil {
			t.Fatalf("put %d: %v", keys[i], err)
		}
	}
	c.Close()
	// The drained point moves once node 0's stream from node 1 drains.
	deadline := time.Now().Add(10 * time.Second)
	for replicaStats(t, addrs[0]).DrainedSeq == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node 0 never recorded a drained point")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sigtermSelf(t)
	for i := range errChans {
		if err := <-errChans[i]; err != nil {
			t.Fatalf("node %d run: %v", i, err)
		}
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	applied, drained := binary.LittleEndian.Uint64(raw[8:]), binary.LittleEndian.Uint64(raw[16:])

	// serveAndCheck restarts node 0 from file and checks its keys and its
	// replica section, then stops it.
	serveAndCheck := func(file string, want wire.ReplicaStats) {
		t.Helper()
		lines, errCh := startServed(t, "-addr", addrs[0], "-load", file, "-peers", addrs[1], "-replicas", "2", "-seed", "42")
		waitLine(t, lines, "listening on ")
		rc, err := wire.Dial(wire.ClientConfig{Addr: addrs[0]})
		if err != nil {
			t.Fatal(err)
		}
		vals, found, err := rc.GetBatch(keys)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if !found[i] || vals[i] != k*7 {
				t.Fatalf("%s: key %d reads %d, %v; want %d", filepath.Base(file), k, vals[i], found[i], k*7)
			}
		}
		st := replicaStats(t, addrs[0])
		if st.AppliedSeq != want.AppliedSeq || st.DrainedSeq != want.DrainedSeq || st.TrackedKeys != len(keys) {
			t.Fatalf("%s: applied %d, drained %d, %d keys tracked; want %d, %d and %d",
				filepath.Base(file), st.AppliedSeq, st.DrainedSeq, st.TrackedKeys, want.AppliedSeq, want.DrainedSeq, len(keys))
		}
		sigtermSelf(t)
		if err := <-errCh; err != nil {
			t.Fatalf("%s: run: %v", filepath.Base(file), err)
		}
	}
	serveAndCheck(ckpt, wire.ReplicaStats{AppliedSeq: applied, DrainedSeq: drained})

	bad := filepath.Join(dir, "bad.ckpt")
	raw[len(raw)-10] ^= 1
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", addrs[0], "-load", bad, "-peers", addrs[1]}, io.Discard); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("a damaged checkpoint: %v, want an error naming %s", err, bad)
	}

	tab, err := mccuckoo.NewSharded(8192, 4, mccuckoo.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		tab.Insert(k, k*7)
	}
	plain := filepath.Join(dir, "plain.snap")
	if err := tab.SaveFile(plain); err != nil {
		t.Fatal(err)
	}
	serveAndCheck(plain, wire.ReplicaStats{AppliedSeq: 1, DrainedSeq: 1})
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-kind", "bogus"}, io.Discard); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if err := run([]string{"-load", filepath.Join(t.TempDir(), "missing.snap")}, io.Discard); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}
