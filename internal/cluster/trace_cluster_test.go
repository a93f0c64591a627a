package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/wire"
)

// treeHasChain reports whether the tree rooted at n contains, starting at
// the root, the given kind chain along some descendant path.
func treeHasChain(n *trace.Node, kinds []trace.Kind) bool {
	if len(kinds) == 0 {
		return true
	}
	if n.Span.Kind != kinds[0] {
		return false
	}
	if len(kinds) == 1 {
		return true
	}
	for _, c := range n.Children {
		if treeHasChain(c, kinds[1:]) {
			return true
		}
	}
	return false
}

// TestTracedClusterScrapeUnderTraffic extends the kill-a-node drill with the
// observability surface live: a 3-node R=2 W=2 cluster serves fully-sampled
// traced traffic while goroutines hammer every node's merged /metrics and
// trace-dump handlers, a node dies and restarts mid-run, and afterwards the
// client's ack-skew histogram is populated and one connected cross-node span
// tree (client_op -> replica_rtt -> server_op on another process's recorder)
// is reconstructable from the combined span dumps. Run under -race this is
// the proof that scraping never tears the seqlock ring or the histograms.
func TestTracedClusterScrapeUnderTraffic(t *testing.T) {
	addrs := freeAddrs(t, 3)
	recs := make([]*trace.Recorder, 3)
	nodes := make([]*testNode, 3)
	for i, addr := range addrs {
		recs[i] = trace.New(trace.Options{Sample: 1})
		nodes[i] = startTestNode(t, addr, addrs, nodeOpts{trace: recs[i]})
	}
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()

	ctr := trace.New(trace.Options{Sample: 1})
	c, err := New(Config{
		Nodes:       addrs,
		Replicas:    2,
		WriteQuorum: 2,
		Seed:        testRingSeed,
		Trace:       ctr,
		// A tight dial timeout keeps the dead-node window cheap: the victim
		// costs one short dial failure per key until its breaker opens, not
		// a 5s default dial timeout each. Round-trip timeouts stay at their
		// defaults — the race detector plus the scrape load makes a live
		// node legitimately slow.
		BreakerProbe: 100 * time.Millisecond,
		Wire:         wire.ClientConfig{DialTimeout: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Scrapers: one per node serving the same merged handler mcserved
	// mounts, plus its trace dump, plus the cluster client's exposition.
	// Handlers are captured up front so the mid-run node swap below cannot
	// race the scraper goroutines on the nodes slice.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrape := func(h http.Handler, path string, check func(t *testing.T, body []byte)) {
		defer scrapeWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopScrape:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("scrape %s: status %d", path, rec.Code)
				return
			}
			// Decoding every response would make the test spend its time in
			// the race-instrumented json decoder, not the surface under
			// test; a subsample still catches a torn dump.
			if check != nil && i%16 == 0 {
				check(t, rec.Body.Bytes())
			}
			// ReadMemStats in the runtime part briefly stops the world, so
			// scrape at a realistic cadence rather than a busy loop.
			time.Sleep(20 * time.Millisecond)
		}
	}
	jsonCheck := func(t *testing.T, body []byte) {
		var spans []map[string]any
		if err := json.Unmarshal(body, &spans); err != nil {
			t.Errorf("trace dump not valid JSON: %v", err)
		}
	}
	for i := range nodes {
		metrics := telemetry.MergedHandler(
			nodes[i].srv.WritePrometheus,
			nodes[i].r.WritePrometheus,
			recs[i].WritePrometheus,
			telemetry.WriteRuntimeMetrics,
		)
		scrapeWG.Add(2)
		go scrape(metrics, "/metrics", nil)
		go scrape(recs[i].Handler(), "/debug/mccuckoo/trace?limit=64", jsonCheck)
	}
	clientMetrics := telemetry.MergedHandler(c.WritePrometheus, ctr.WritePrometheus)
	scrapeWG.Add(2)
	go scrape(clientMetrics, "/metrics", nil)
	go scrape(ctr.Handler(), "/debug/mccuckoo/trace?limit=64", jsonCheck)

	// Traced traffic spanning a node kill and restart.
	const keys = 400
	for k := uint64(1); k <= keys/2; k++ {
		if err := c.Put(k, k*3); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	victim := 2
	nodes[victim].stop()
	for k := uint64(keys/2 + 1); k <= keys; k++ {
		// W=2 with a node down can legitimately miss quorum for keys the
		// dead node replicates; the write still lands on the live replica.
		_ = c.Put(k, k*3)
	}
	nodes[victim] = startTestNode(t, addrs[victim], addrs, nodeOpts{trace: recs[victim]})
	waitFor(t, 10*time.Second, "restarted node to rejoin", func() bool {
		for k := uint64(1); k <= keys; k += 37 {
			if _, found, err := c.Get(k); err != nil || !found {
				return false
			}
		}
		return true
	})

	close(stopScrape)
	scrapeWG.Wait()

	// The ack-skew histogram is the W>1 consistency window; full sampling
	// and W=2 means every healthy put observed at least two acks.
	if n := c.MetricsSnapshot().AckSkew.Count; n == 0 {
		t.Fatal("ack-skew histogram empty after W=2 traffic")
	}

	// One connected cross-node tree: the client's root and rtt spans join
	// the server-side spans (different recorder, same trace id) into
	// client_op -> replica_rtt -> server_op -> table_op.
	all := ctr.Spans()
	for _, r := range recs {
		all = append(all, r.Spans()...)
	}
	want := []trace.Kind{trace.KindClientOp, trace.KindReplicaRTT, trace.KindServerOp, trace.KindTableOp}
	found := false
	for _, root := range trace.Trees(all) {
		if treeHasChain(root, want) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no connected client_op->replica_rtt->server_op->table_op tree across %d spans", len(all))
	}
}
