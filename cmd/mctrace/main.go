// Command mctrace generates and replays frozen workload traces, the role
// the DocWords dataset file plays in the paper's evaluation: a trace on disk
// makes an experiment reproducible bit-for-bit across machines and runs.
//
// Generate a mixed trace:
//
//	mctrace gen -out ops.trace -ops 1000000 -keyspace 200000 \
//	        -mix 2:6:1 -negshare 0.2 -seed 1
//
// Replay it against a scheme and report throughput plus memory traffic:
//
//	mctrace replay -in ops.trace -scheme mccuckoo -capacity 300000
//
// Schemes: cuckoo, mccuckoo, bcht, bmccuckoo replay against the internal
// experiment tables with full memory-traffic accounting. Two more schemes,
// sharded and concurrent, replay against the public thread-safe kinds
// through the mccuckoo.Store interface — the exact surface mcserved serves
// — so a trace can be validated against what a network client would see.
// The public API hides the memory meter, so the traffic lines of those two
// schemes read zero.
//
// With -nodes the replay instead drives a live mcserved cluster through the
// replicated client (writes fan to -replicas copies with a -quorum ack
// requirement), and -trace records distributed request spans: the summary
// then includes per-operation span statistics and the slowest -tracetop
// requests rendered as span trees, each tree stitching the client fan-out
// to the per-replica round trips:
//
//	mctrace replay -in ops.trace -nodes 10.0.0.1:7466,10.0.0.2:7466 \
//	        -replicas 2 -quorum 2 -trace -tracetop 5
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mccuckoo/internal/bench"
	"mccuckoo/internal/cluster"
	"mccuckoo/internal/kv"
	"mccuckoo/internal/memmodel"
	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mctrace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mctrace gen|replay [flags] (see -h)")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:], out)
	case "replay":
		return runReplay(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want gen or replay)", args[0])
	}
}

func runGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mctrace gen", flag.ContinueOnError)
	var (
		outPath  = fs.String("out", "", "output trace file (required)")
		ops      = fs.Int("ops", 1_000_000, "number of operations")
		keySpace = fs.Int("keyspace", 200_000, "distinct keys drawn from")
		mix      = fs.String("mix", "2:6:1", "insert:lookup:delete weights")
		negShare = fs.Float64("negshare", 0.2, "fraction of lookups on absent keys")
		seed     = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("gen: -out is required")
	}
	var wi, wl, wd float64
	if _, err := fmt.Sscanf(*mix, "%f:%f:%f", &wi, &wl, &wd); err != nil {
		return fmt.Errorf("gen: bad -mix %q: %w", *mix, err)
	}
	stream, err := workload.Mix(workload.MixConfig{
		Seed: *seed, Ops: *ops, KeySpace: *keySpace,
		InsertWeight: wi, LookupWeight: wl, DeleteWeight: wd,
		NegativeShare: *negShare,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := workload.WriteTrace(f, stream); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	counts := map[workload.OpKind]int{}
	for _, op := range stream {
		counts[op.Kind]++
	}
	fmt.Fprintf(out, "wrote %d ops to %s (insert %d, lookup %d, delete %d)\n",
		len(stream), *outPath, counts[workload.OpInsert], counts[workload.OpLookup], counts[workload.OpDelete])
	return nil
}

// gaugeSampleEvery is how often (in replayed ops) the telemetry gauges are
// refreshed when -metrics is serving.
const gaugeSampleEvery = 1 << 16

func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mctrace replay", flag.ContinueOnError)
	var cc bench.CLIConfig
	cc.RegisterCommon(fs, 300_000, "table capacity in slots")
	cc.RegisterReplay(fs)
	var (
		inPath   = fs.String("in", "", "input trace file (required)")
		scheme   = fs.String("scheme", "mccuckoo", "cuckoo|mccuckoo|bcht|bmccuckoo|sharded|concurrent")
		metrics  = fs.String("metrics", "", "serve telemetry on this address (/metrics, /debug/mccuckoo/*) during the replay")
		linger   = fs.Duration("linger", 0, "keep serving -metrics this long after the replay finishes")
		nodes    = fs.String("nodes", "", "comma-separated mcserved addresses: replay over the cluster client instead of in-process (-scheme is ignored; -seed doubles as the ring seed)")
		replicas = fs.Int("replicas", 2, "cluster copies per key (needs -nodes; must match the nodes)")
		quorum   = fs.Int("quorum", 1, "write quorum W (needs -nodes)")
		vnodes   = fs.Int("vnodes", 0, "ring virtual nodes (needs -nodes; must match the nodes)")
		traceOn  = fs.Bool("trace", false, "record client-side request spans during a -nodes replay")
		traceSmp = fs.Int("tracesample", 1, "head-sample 1 in N traces (needs -trace)")
		traceSlw = fs.Duration("traceslow", 0, "also capture ops slower than this even when unsampled (needs -trace; 0 disables)")
		traceTop = fs.Int("tracetop", 3, "span trees to print for the slowest sampled requests (needs -trace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cc.Validate(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if *inPath == "" {
		return fmt.Errorf("replay: -in is required")
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	stream, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	if *nodes != "" {
		return runClusterReplay(stream, clusterReplayConfig{
			nodes:    *nodes,
			replicas: *replicas,
			quorum:   *quorum,
			vnodes:   *vnodes,
			seed:     cc.Seed,
			traceOn:  *traceOn,
			sample:   *traceSmp,
			slow:     *traceSlw,
			top:      *traceTop,
		}, out)
	}
	tab, err := cc.BuildScheme(*scheme)
	if err != nil {
		return err
	}

	var sink *telemetry.Sink
	if *metrics != "" {
		sink = telemetry.New()
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fmt.Errorf("replay: -metrics: %w", err)
		}
		srv := &http.Server{Handler: sink.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "serving metrics on http://%s/metrics\n", ln.Addr())
	}

	// The meter is snapshotted after every operation and the delta is
	// credited to that operation's phase, so the summary can report the
	// paper's per-op access counts separately for the insert and the query
	// (lookup/delete) phases of the trace. charge books one operation and
	// returns its off-chip accesses for the telemetry record.
	meter := tab.Meter()
	var phases [3]memmodel.Meter
	var counts [3]int
	prev := meter.Snapshot()
	charge := func(kind workload.OpKind) int64 {
		cur := meter.Snapshot()
		d := cur.Sub(prev)
		prev = cur
		phases[kind] = phases[kind].Add(d)
		counts[kind]++
		return d.OffChipReads + d.OffChipWrites
	}

	start := time.Now()
	var hits, misses, failed int64
	for i, op := range stream {
		opStart := sink.Start()
		switch op.Kind {
		case workload.OpInsert:
			o := tab.Insert(op.Key, op.Key)
			if o.Status == kv.Failed {
				failed++
			}
			sink.RecordInsert(-1, op.Key, o, charge(op.Kind), opStart)
		case workload.OpLookup:
			_, ok := tab.Lookup(op.Key)
			if ok {
				hits++
			} else {
				misses++
			}
			sink.RecordLookup(-1, op.Key, ok, charge(op.Kind), opStart)
		case workload.OpDelete:
			ok := tab.Delete(op.Key)
			sink.RecordDelete(-1, op.Key, ok, charge(op.Kind), opStart)
		}
		if (i+1)%gaugeSampleEvery == 0 {
			sink.SampleGauges(tab)
		}
	}
	elapsed := time.Since(start)
	sink.SampleGauges(tab)

	st := tab.Stats()
	m := tab.Meter().Snapshot()
	fmt.Fprintf(out, "replayed %d ops in %v (%.2f Mops/s) against %s\n",
		len(stream), elapsed.Round(time.Millisecond),
		float64(len(stream))/elapsed.Seconds()/1e6, *scheme)
	fmt.Fprintf(out, "final: %d items at %.1f%% load, %d stashed, %d failed inserts\n",
		tab.Len(), tab.LoadRatio()*100, tab.StashLen(), failed)
	fmt.Fprintf(out, "lookups: %d hits, %d misses; stash probed %d times\n",
		hits, misses, st.StashProbes)
	fmt.Fprintf(out, "traffic: %.3f off-chip reads/op, %.3f writes/op, %.3f counter accesses/op\n",
		perOp(m.OffChipReads, len(stream)), perOp(m.OffChipWrites, len(stream)),
		perOp(m.OnChipReads+m.OnChipWrites, len(stream)))
	phaseNames := [3]string{workload.OpInsert: "insert", workload.OpLookup: "lookup", workload.OpDelete: "delete"}
	for kind, name := range phaseNames {
		n, ph := counts[kind], phases[kind]
		if n == 0 {
			continue
		}
		fmt.Fprintf(out, "phase %s: %d ops, %.3f off-chip reads/op, %.3f writes/op, %.3f counter accesses/op\n",
			name, n, perOp(ph.OffChipReads, n), perOp(ph.OffChipWrites, n),
			perOp(ph.OnChipReads+ph.OnChipWrites, n))
	}
	if *metrics != "" && *linger > 0 {
		fmt.Fprintf(out, "lingering %v for scrapes\n", *linger)
		time.Sleep(*linger)
	}
	if failed > 0 {
		return fmt.Errorf("replay: %d of %d inserts failed outright", failed, counts[workload.OpInsert])
	}
	return nil
}

// clusterReplayConfig carries the -nodes replay flags.
type clusterReplayConfig struct {
	nodes    string
	replicas int
	quorum   int
	vnodes   int
	seed     uint64
	traceOn  bool
	sample   int
	slow     time.Duration
	top      int
}

// runClusterReplay replays the trace against a live cluster through the
// replicated client, then summarizes the recorded client-side spans: one
// line per operation kind (count, mean, max) and the slowest requests as
// indented span trees. Insert failures (quorum misses included) make the
// replay exit non-zero, mirroring the in-process path.
func runClusterReplay(stream []workload.Op, cfg clusterReplayConfig, out io.Writer) error {
	var rec *trace.Recorder
	if cfg.traceOn {
		rec = trace.New(trace.Options{Sample: cfg.sample, SlowNanos: cfg.slow.Nanoseconds()})
	}
	c, err := cluster.New(cluster.Config{
		Nodes:       splitNodes(cfg.nodes),
		Replicas:    cfg.replicas,
		WriteQuorum: cfg.quorum,
		VNodes:      cfg.vnodes,
		Seed:        cfg.seed,
		Trace:       rec,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	start := time.Now()
	var hits, misses, failed int64
	for _, op := range stream {
		switch op.Kind {
		case workload.OpInsert:
			if err := c.Put(op.Key, op.Key); err != nil {
				failed++
			}
		case workload.OpLookup:
			if _, found, err := c.Get(op.Key); err == nil && found {
				hits++
			} else {
				misses++
			}
		case workload.OpDelete:
			if err := c.Del(op.Key); err != nil {
				failed++
			}
		}
	}
	elapsed := time.Since(start)

	fmt.Fprintf(out, "replayed %d ops in %v (%.2f Mops/s) against cluster %s (R=%d W=%d)\n",
		len(stream), elapsed.Round(time.Millisecond),
		float64(len(stream))/elapsed.Seconds()/1e6, cfg.nodes, cfg.replicas, cfg.quorum)
	fmt.Fprintf(out, "lookups: %d hits, %d misses; %d failed writes\n", hits, misses, failed)
	if rec != nil {
		writeTraceSummary(out, rec, cfg.top)
	}
	if failed > 0 {
		return fmt.Errorf("replay: %d of %d writes failed", failed, len(stream))
	}
	return nil
}

// writeTraceSummary renders the per-phase span statistics and the slowest-N
// span trees from one recorder's flight ring.
func writeTraceSummary(out io.Writer, rec *trace.Recorder, top int) {
	spans := rec.Spans()
	type agg struct {
		n        int
		sum, max int64
	}
	byOp := map[byte]*agg{}
	for _, sp := range spans {
		if sp.Kind != trace.KindClientOp {
			continue
		}
		a := byOp[sp.Op]
		if a == nil {
			a = &agg{}
			byOp[sp.Op] = a
		}
		a.n++
		a.sum += sp.Dur
		if sp.Dur > a.max {
			a.max = sp.Dur
		}
	}
	ops := make([]byte, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		a := byOp[op]
		fmt.Fprintf(out, "trace %s: %d sampled, mean %.3gµs, max %.3gµs\n",
			trace.OpString(op), a.n, float64(a.sum)/float64(a.n)/1e3, float64(a.max)/1e3)
	}
	roots := trace.Trees(spans)
	sort.Slice(roots, func(i, j int) bool { return roots[i].Span.Dur > roots[j].Span.Dur })
	if top > len(roots) {
		top = len(roots)
	}
	if top > 0 {
		fmt.Fprintf(out, "slowest %d of %d traces:\n", top, len(roots))
		for _, n := range roots[:top] {
			n.Write(out, 1)
		}
	}
}

// splitNodes parses the -nodes list.
func splitNodes(s string) []string {
	var nodes []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

func perOp(n int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}
