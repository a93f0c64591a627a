package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mccuckoo"
	"mccuckoo/internal/cluster"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/wire"
)

func TestUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Error("bad subcommand accepted")
	}
	if err := run([]string{"gen"}, &sb); err == nil {
		t.Error("gen without -out accepted")
	}
	if err := run([]string{"replay"}, &sb); err == nil {
		t.Error("replay without -in accepted")
	}
	if err := run([]string{"gen", "-out", "x", "-mix", "garbage"}, &sb); err == nil {
		t.Error("bad mix accepted")
	}
}

func TestGenReplayRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "ops.trace")
	var sb strings.Builder
	err := run([]string{"gen", "-out", trace, "-ops", "20000", "-keyspace", "3000",
		"-mix", "3:5:1", "-negshare", "0.25", "-seed", "9"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrote 20000 ops") {
		t.Fatalf("gen output: %s", sb.String())
	}
	for _, scheme := range []string{"cuckoo", "mccuckoo", "bcht", "bmccuckoo"} {
		var rb strings.Builder
		err := run([]string{"replay", "-in", trace, "-scheme", scheme,
			"-capacity", "9000", "-seed", "4"}, &rb)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		out := rb.String()
		for _, want := range []string{"replayed 20000 ops", "final:", "traffic:",
			"phase insert:", "phase lookup:", "phase delete:"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", scheme, want, out)
			}
		}
	}
	var rb strings.Builder
	if err := run([]string{"replay", "-in", trace, "-scheme", "nope"}, &rb); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestReplayDeterministicAcrossSchemesTraffic(t *testing.T) {
	// The same trace replayed twice against the same scheme must print
	// byte-identical output (modulo the wall-clock line).
	trace := filepath.Join(t.TempDir(), "det.trace")
	var sb strings.Builder
	if err := run([]string{"gen", "-out", trace, "-ops", "5000", "-keyspace", "800"}, &sb); err != nil {
		t.Fatal(err)
	}
	replay := func() string {
		var rb strings.Builder
		if err := run([]string{"replay", "-in", trace, "-scheme", "mccuckoo",
			"-capacity", "3000"}, &rb); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(rb.String(), "\n")
		return strings.Join(lines[1:], "\n") // drop the timing line
	}
	if a, b := replay(), replay(); a != b {
		t.Fatalf("replays differ:\n%s\nvs\n%s", a, b)
	}
}

// TestReplayGolden pins every line mctrace replay prints except the timing
// line, for one fixed trace against every in-process scheme. The trace
// leaves 4407 live keys in 4590 slots (96% load), so the single-slot
// schemes stash items and probe their stashes.
func TestReplayGolden(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "golden.trace")
	var sb strings.Builder
	if err := run([]string{"gen", "-out", trace, "-ops", "20000", "-keyspace", "7000",
		"-mix", "3:5:1", "-negshare", "0.25", "-seed", "9"}, &sb); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, scheme := range []string{"cuckoo", "mccuckoo", "bcht", "bmccuckoo", "sharded", "concurrent"} {
		var rb strings.Builder
		if err := run([]string{"replay", "-in", trace, "-scheme", scheme,
			"-capacity", "4590", "-seed", "4", "-shards", "4"}, &rb); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		timing, rest, _ := strings.Cut(rb.String(), "\n")
		if !strings.HasPrefix(timing, "replayed 20000 ops in ") || !strings.HasSuffix(timing, " against "+scheme) {
			t.Fatalf("%s: first line is not the timing line: %q", scheme, timing)
		}
		got.WriteString("== " + scheme + "\n" + rest)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "replay.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("replay output differs from testdata/replay.golden\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestReplayFailedInsertsExitNonZero(t *testing.T) {
	// An insert-only trace into a tiny table with a one-slot stash must
	// overflow; the replay reports the failures and returns an error so the
	// process exits non-zero.
	trace := filepath.Join(t.TempDir(), "full.trace")
	var sb strings.Builder
	if err := run([]string{"gen", "-out", trace, "-ops", "300", "-keyspace", "300",
		"-mix", "1:0:0", "-seed", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	var rb strings.Builder
	err := run([]string{"replay", "-in", trace, "-scheme", "mccuckoo",
		"-capacity", "60", "-stashmax", "1", "-seed", "1"}, &rb)
	if err == nil {
		t.Fatalf("overfull replay returned nil error:\n%s", rb.String())
	}
	if !strings.Contains(err.Error(), "inserts failed outright") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !strings.Contains(rb.String(), "failed inserts") {
		t.Fatalf("summary missing failure count:\n%s", rb.String())
	}
}

// replayNode is one in-process cluster member for the traced replay smoke:
// a replicated store served over TCP with a span recorder, subscribed to
// the other node's op log — what two `mcserved -peers -trace` processes
// would be.
type replayNode struct {
	rec *trace.Recorder
	srv *wire.Server
	r   *cluster.Replicator
}

func startReplayNode(t *testing.T, addr string, nodes []string, ringSeed uint64) *replayNode {
	t.Helper()
	tab, err := mccuckoo.NewSharded(1<<12, 4, mccuckoo.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	rep := wire.NewReplicated(tab, wire.ReplicaConfig{})
	rec := trace.New(trace.Options{Sample: 1})
	srv, err := wire.NewServer(wire.Config{Store: rep, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	r, err := cluster.NewReplicator(rep, cluster.ReplicatorConfig{
		Self:      addr,
		Nodes:     nodes,
		Replicas:  2,
		Seed:      ringSeed,
		RetryBase: 10 * time.Millisecond,
		Trace:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	n := &replayNode{rec: rec, srv: srv, r: r}
	t.Cleanup(func() {
		n.r.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		n.srv.Shutdown(ctx)
	})
	return n
}

// TestTracedClusterReplaySmoke replays a small traced run against a live
// two-node replicated pair and asserts the tracing tentpole end to end: the
// summary reports per-op span statistics and slowest trees, and at least
// one trace started by the replay client reached BOTH nodes — a cross-node
// span tree, reassembled here from the two server-side flight recorders.
func TestTracedClusterReplaySmoke(t *testing.T) {
	const ringSeed = 7
	addrs := make([]string, 2)
	lns := make([]net.Listener, len(addrs))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// Closed only once all are picked: a port closed early can be handed
	// out again.
	for _, ln := range lns {
		ln.Close()
	}
	nodes := make([]*replayNode, 2)
	for i, addr := range addrs {
		nodes[i] = startReplayNode(t, addr, addrs, ringSeed)
	}

	tracePath := filepath.Join(t.TempDir(), "cluster.trace")
	var sb strings.Builder
	if err := run([]string{"gen", "-out", tracePath, "-ops", "600", "-keyspace", "150",
		"-mix", "3:5:1", "-seed", "11"}, &sb); err != nil {
		t.Fatal(err)
	}
	var rb strings.Builder
	err := run([]string{"replay", "-in", tracePath,
		"-nodes", strings.Join(addrs, ","), "-replicas", "2", "-quorum", "2",
		"-seed", "7", "-trace", "-tracesample", "1", "-tracetop", "2"}, &rb)
	if err != nil {
		t.Fatalf("cluster replay: %v\n%s", err, rb.String())
	}
	outStr := rb.String()
	for _, want := range []string{"against cluster", "trace put:", "trace get:", "slowest 2 of"} {
		if !strings.Contains(outStr, want) {
			t.Errorf("replay output missing %q:\n%s", want, outStr)
		}
	}

	// Cross-node span tree: with R=2 over two nodes every write fans to
	// both, so some trace id must appear in both flight recorders, carried
	// there by the wire protocol's context prefix (Hop 1 on arrival).
	ids := func(n *replayNode) map[uint64]bool {
		m := map[uint64]bool{}
		for _, sp := range n.rec.Spans() {
			if sp.Kind == trace.KindServerOp && sp.Hop == 1 {
				m[sp.TraceID] = true
			}
		}
		return m
	}
	a, b := ids(nodes[0]), ids(nodes[1])
	shared := uint64(0)
	for id := range a {
		if b[id] {
			shared = id
			break
		}
	}
	if shared == 0 {
		t.Fatalf("no trace id reached both nodes (%d vs %d server traces)", len(a), len(b))
	}
	all := append(nodes[0].rec.Spans(), nodes[1].rec.Spans()...)
	var cross []trace.Span
	for _, sp := range all {
		if sp.TraceID == shared {
			cross = append(cross, sp)
		}
	}
	trees := trace.Trees(cross)
	if len(trees) < 2 {
		t.Fatalf("expected server-side trees on both nodes for trace %016x, got %d", shared, len(trees))
	}
}

// syncBuffer lets the test read replay output while run() is still writing it
// from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestReplayServesMetrics(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "m.trace")
	var sb strings.Builder
	if err := run([]string{"gen", "-out", trace, "-ops", "2000", "-keyspace", "500"}, &sb); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"replay", "-in", trace, "-scheme", "mccuckoo",
			"-capacity", "2000", "-metrics", "127.0.0.1:0", "-linger", "2s"}, &out)
	}()

	addrRE := regexp.MustCompile(`serving metrics on http://([^/\s]+)/metrics`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("metrics address never printed:\n%s", out.String())
	}
	// Scrape during the linger window; the replay has finished by the time
	// the phase summaries print, but the listener stays up.
	var body string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body = string(raw)
			if strings.Contains(body, "mccuckoo_ops_total") {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(body, "mccuckoo_ops_total") {
		t.Fatalf("scrape missing mccuckoo_ops_total:\n%.2000s", body)
	}
	if err := <-done; err != nil {
		t.Fatalf("replay failed: %v", err)
	}
}
