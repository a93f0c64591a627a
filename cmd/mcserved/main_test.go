package main

import (
	"bufio"
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
	addrs := make([]string, 3)
	lns := make([]net.Listener, len(addrs))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// The nodes re-bind these ports. Each is closed only once all are
	// picked: a port closed early can be handed out again.
	for _, ln := range lns {
		ln.Close()
	}

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

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-kind", "bogus"}, io.Discard); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if err := run([]string{"-load", filepath.Join(t.TempDir(), "missing.snap")}, io.Discard); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}
