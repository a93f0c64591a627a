// Command mcserved serves a McCuckoo table over TCP with the wire protocol
// (DESIGN.md §10): pipelined GET/PUT/DEL/BATCH/STATS/PING, one goroutine
// per connection with TCP flow control as the backpressure, a connection
// limit, and graceful drain on SIGTERM/SIGINT.
//
// The table kind is chosen with -kind (sharded by default; single and
// blocked are served through mccuckoo.NewConcurrent, so reads run in
// parallel), or restored from a snapshot with -load, which sniffs the
// snapshot's kind. With -snapshot the table is checkpointed there every
// -checkpoint interval and once more during shutdown, so a restart with
// -load resumes where the server left off.
//
// With -metrics an HTTP listener exposes the combined Prometheus
// exposition (table telemetry, mccuckoo_server_* counters, Go runtime
// health) on /metrics, the debug endpoints under /debug/mccuckoo/, and the
// standard pprof profiles under /debug/pprof/.
//
// With -trace the node keeps a flight recorder of request spans (DESIGN.md
// §13): incoming frames carrying a trace context get server-side spans
// (request execution, table op, kick-chain length), head-sampled traces
// started here get 1-in-N sampling (-tracesample), and any op slower than
// -traceslow is captured regardless of sampling. The recorder is dumped at
// /debug/mccuckoo/trace (filters: ?trace=<hex id>, ?minns=<dur>,
// ?limit=<n>) and its counters join /metrics.
//
// With -peers the node joins a cluster (DESIGN.md §11): the store is
// wrapped in replication bookkeeping, the replication opcodes are enabled,
// and the node subscribes to every peer's op log, applying the entries it
// owns under the shared consistent-hash ring (-replicas copies per key,
// ring seeded by -seed, -vnodes virtual nodes — all of which must match on
// every node and client). With -snapshot, the node checkpoints the store
// and its replication bookkeeping into one file, so a restart with -load on
// it resumes its subscriptions from where every peer stream had last
// drained instead of taking a full resync. A peer's op-log ring keeps its
// last 4,096 writes, so a node that was down for more of a peer's writes
// than that takes a full dump from that peer. /metrics additionally exposes
// mccuckoo_replica_* and per-peer mccuckoo_peer_* series (replica lag,
// repair counts, connects).
//
// With -sweep the node also runs background anti-entropy (DESIGN.md §12):
// every interval it exchanges ring-ownership-filtered XOR digests with each
// peer, bisects mismatched key ranges (-sweepleaf sets the leaf size), and
// repairs divergent keys through the replication paths. A peer that keeps
// failing its sweeps trips a breaker (-breakerfails consecutive failures)
// and is skipped until a jittered half-open probe (-breakerprobe)
// succeeds. /metrics gains the mccuckoo_sweep_* series.
//
// Example:
//
//	mcserved -addr :7466 -capacity 1048576 -shards 8 \
//	  -metrics 127.0.0.1:9091 -snapshot /var/lib/mccuckoo/table.snap -checkpoint 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mccuckoo"
	"mccuckoo/internal/atomicio"
	"mccuckoo/internal/cluster"
	"mccuckoo/internal/telemetry"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcserved:", err)
		os.Exit(1)
	}
}

// saver is the snapshot capability every concrete kind has behind the
// BatchStore interface.
type saver interface{ SaveFile(path string) error }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mcserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7466", "TCP address to serve the wire protocol on")
		metrics    = fs.String("metrics", "", "HTTP address for /metrics and /debug/mccuckoo/ (empty disables)")
		kind       = fs.String("kind", "sharded", "table kind: sharded, single, or blocked")
		capacity   = fs.Int("capacity", 1<<20, "table capacity in slots")
		shards     = fs.Int("shards", 8, "shard count for -kind sharded")
		seed       = fs.Uint64("seed", 1, "hash seed")
		load       = fs.String("load", "", "restore the table from this snapshot (kind is sniffed)")
		snapshot   = fs.String("snapshot", "", "checkpoint the table to this path")
		checkpoint = fs.Duration("checkpoint", 0, "periodic checkpoint interval (0 disables; needs -snapshot)")
		maxConns   = fs.Int("maxconns", 256, "maximum simultaneous connections")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-drain budget on shutdown")
		peers      = fs.String("peers", "", "comma-separated addresses of the other cluster nodes (enables replication)")
		self       = fs.String("self", "", "this node's address in the cluster ring (default -addr)")
		replicas   = fs.Int("replicas", 2, "copies kept of each key across the cluster")
		vnodes     = fs.Int("vnodes", 0, "virtual nodes per cluster node (0 = default)")
		sweep      = fs.Duration("sweep", 0, "anti-entropy sweep interval (0 disables; needs -peers)")
		sweepLeaf  = fs.Int("sweepleaf", 0, "anti-entropy bisection leaf size in keys (0 = default)")
		brkFails   = fs.Int("breakerfails", 0, "consecutive failed sweeps that trip a peer's breaker (0 = default)")
		brkProbe   = fs.Duration("breakerprobe", 0, "base interval between breaker half-open probes (0 = sweep interval)")
		traceOn    = fs.Bool("trace", false, "record request spans into the flight recorder")
		traceSamp  = fs.Int("tracesample", 64, "head-sample 1 in N traces started at this node (needs -trace)")
		traceSlow  = fs.Duration("traceslow", 100*time.Millisecond, "capture any op slower than this even when unsampled (needs -trace; 0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "mcserved: ", log.LstdFlags)

	// The recorder stays nil without -trace: every span call site treats a
	// nil recorder as a no-op, so the untraced server runs the exact same
	// code it did before tracing existed.
	var rec *trace.Recorder
	if *traceOn {
		rec = trace.New(trace.Options{
			Sample:    *traceSamp,
			SlowNanos: traceSlow.Nanoseconds(),
		})
	}

	tel := mccuckoo.NewTelemetry()
	store, err := buildStore(*kind, *capacity, *shards, *seed, *load, *peers != "", tel)
	if err != nil {
		return err
	}

	// Cluster mode: wrap the store in replication bookkeeping, unless it
	// was restored with its own, and prepare the peer subscription loops.
	// The ring covers self plus every peer.
	rep, _ := store.(*wire.Replicated)
	var replicator *cluster.Replicator
	var sweeper *cluster.Sweeper
	if *peers != "" {
		if rep == nil {
			rep = wire.NewReplicated(store, wire.ReplicaConfig{})
		}
		selfAddr := *self
		if selfAddr == "" {
			selfAddr = *addr
		}
		nodes := append(splitPeers(*peers), selfAddr)
		replicator, err = cluster.NewReplicator(rep, cluster.ReplicatorConfig{
			Self:     selfAddr,
			Nodes:    nodes,
			Replicas: *replicas,
			VNodes:   *vnodes,
			Seed:     *seed,
			Logf:     logger.Printf,
			Trace:    rec,
		})
		if err != nil {
			return err
		}
		if *sweep > 0 {
			sweeper, err = cluster.NewSweeper(rep, cluster.SweeperConfig{
				Self:            selfAddr,
				Nodes:           nodes,
				Replicas:        *replicas,
				VNodes:          *vnodes,
				Seed:            *seed,
				Interval:        *sweep,
				LeafKeys:        *sweepLeaf,
				BreakerFailures: *brkFails,
				BreakerProbe:    *brkProbe,
				Logf:            logger.Printf,
				Trace:           rec,
			})
			if err != nil {
				return err
			}
		} else {
			// Even without a sweep loop, install the ownership digest
			// filter so this node answers peers' DIGEST requests over the
			// key set both sides share.
			ring, err := cluster.NewRing(nodes, *vnodes, *seed)
			if err != nil {
				return err
			}
			rep.SetDigestFilter(cluster.DigestFilter(ring, selfAddr, *replicas))
		}
		store = rep
	}

	srv, err := wire.NewServer(wire.Config{
		Store:    store,
		MaxConns: *maxConns,
		Logf:     logger.Printf,
		Trace:    rec,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	var metricsSrv *http.Server
	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			ln.Close()
			return err
		}
		// One merged exposition instead of ad-hoc writer concatenation;
		// MergedHandler skips the contributors this configuration left nil.
		parts := []telemetry.MetricsWriter{tel.WriteMetrics, srv.WritePrometheus}
		if rep != nil {
			parts = append(parts, rep.WritePrometheus)
		}
		if replicator != nil {
			parts = append(parts, replicator.WritePrometheus)
		}
		if sweeper != nil {
			parts = append(parts, sweeper.WritePrometheus)
		}
		if rec != nil {
			parts = append(parts, rec.WritePrometheus)
		}
		parts = append(parts, telemetry.WriteRuntimeMetrics)
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.MergedHandler(parts...))
		mux.Handle("/debug/mccuckoo/", tel.Handler())
		if rec != nil {
			mux.Handle("/debug/mccuckoo/trace", rec.Handler())
		}
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		metricsSrv = &http.Server{Handler: mux}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("metrics server: %v", err)
			}
		}()
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", mln.Addr())
	}

	// Install the signal handler before announcing readiness, so a
	// supervisor that signals right after the listening line never races
	// an unhandled SIGTERM.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)

	// Periodic checkpoints. Every served kind's gauges are live, so there
	// is nothing else to do in the background.
	stopHousekeeping := make(chan struct{})
	housekeepingDone := make(chan struct{})
	go func() {
		defer close(housekeepingDone)
		if *checkpoint <= 0 || *snapshot == "" {
			<-stopHousekeeping
			return
		}
		ticker := time.NewTicker(*checkpoint)
		defer ticker.Stop()
		for {
			select {
			case <-stopHousekeeping:
				return
			case <-ticker.C:
				if err := saveSnapshot(store, *snapshot); err != nil {
					logger.Printf("checkpoint: %v", err)
				}
			}
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if replicator != nil {
		replicator.Start()
		fmt.Fprintf(stdout, "replicating with peers %s (replicas=%d)\n", *peers, *replicas)
	}
	if sweeper != nil {
		sweeper.Start()
		fmt.Fprintf(stdout, "anti-entropy sweeping every %v\n", *sweep)
	}
	fmt.Fprintf(stdout, "listening on %s (kind=%s capacity=%d)\n", ln.Addr(), *kind, *capacity)

	select {
	case sig := <-sigs:
		logger.Printf("%v: draining (budget %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			logger.Printf("drain incomplete: %v", err)
		}
		if serr := <-serveErr; !errors.Is(serr, wire.ErrServerClosed) {
			logger.Printf("serve: %v", serr)
		}
	case err := <-serveErr:
		close(stopHousekeeping)
		<-housekeepingDone
		if sweeper != nil {
			sweeper.Close()
		}
		if replicator != nil {
			replicator.Close()
		}
		if metricsSrv != nil {
			metricsSrv.Close()
		}
		return err
	}

	close(stopHousekeeping)
	<-housekeepingDone
	if sweeper != nil {
		sweeper.Close()
	}
	if replicator != nil {
		replicator.Close()
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if *snapshot != "" {
		if err := saveSnapshot(store, *snapshot); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		logger.Printf("snapshot saved to %s", *snapshot)
	}
	fmt.Fprintln(stdout, "drained")
	return nil
}

// buildStore constructs (or restores) the served table. Single-writer
// kinds are wrapped with mccuckoo.NewConcurrent; Sharded serves as-is.
func buildStore(kind string, capacity, shards int, seed uint64, load string, replicated bool, tel *mccuckoo.Telemetry) (mccuckoo.BatchStore, error) {
	opts := []mccuckoo.Option{mccuckoo.WithSeed(seed), mccuckoo.WithTelemetry(tel)}
	if load != "" {
		return loadStore(load, replicated, tel)
	}
	switch kind {
	case "sharded":
		return mccuckoo.NewSharded(capacity, shards, opts...)
	case "single":
		t, err := mccuckoo.New(capacity, opts...)
		if err != nil {
			return nil, err
		}
		return mccuckoo.NewConcurrent(t), nil
	case "blocked":
		t, err := mccuckoo.NewBlocked(capacity, opts...)
		if err != nil {
			return nil, err
		}
		return mccuckoo.NewConcurrent(t), nil
	default:
		return nil, fmt.Errorf("unknown -kind %q (want sharded, single, or blocked)", kind)
	}
}

// loadStore restores a snapshot of unknown kind by trying each loader; the
// snapshot header disambiguates, so exactly one can succeed. A loader
// handed an intact snapshot of another kind declines it without counting
// a corrupt load, so a healthy restore leaves mccuckoo_corrupt_loads_total
// at 0. A replicated node tries its checkpoint first, store and
// bookkeeping, and refuses one that fails its checks; any other snapshot
// loads as a plain store, which NewReplicated then tracks afresh.
func loadStore(path string, replicated bool, tel *mccuckoo.Telemetry) (mccuckoo.BatchStore, error) {
	opts := []mccuckoo.Option{mccuckoo.WithTelemetry(tel)}
	if replicated {
		rep, err := wire.RestoreReplicated(path, wire.ReplicaConfig{}, opts...)
		if err == nil {
			return rep, nil
		}
		if !errors.Is(err, atomicio.ErrOtherKind) {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
	}
	var errs []string
	if s, err := mccuckoo.LoadShardedFile(path, opts...); err == nil {
		return s, nil
	} else {
		errs = append(errs, "sharded: "+err.Error())
	}
	if t, err := mccuckoo.LoadFile(path, opts...); err == nil {
		return mccuckoo.NewConcurrent(t), nil
	} else {
		errs = append(errs, "single: "+err.Error())
	}
	if t, err := mccuckoo.LoadBlockedFile(path, opts...); err == nil {
		return mccuckoo.NewConcurrent(t), nil
	} else {
		errs = append(errs, "blocked: "+err.Error())
	}
	return nil, fmt.Errorf("load %s: no kind accepted the snapshot (%s)", path, strings.Join(errs, "; "))
}

// splitPeers parses the -peers list.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// saveSnapshot checkpoints the served store: a Replicated writes its one
// checkpoint file, and any other kind its own SaveFile, which reads under
// the kind's shard locks.
func saveSnapshot(store mccuckoo.BatchStore, path string) error {
	switch s := store.(type) {
	case *wire.Replicated:
		return s.Checkpoint(path)
	case saver:
		return s.SaveFile(path)
	}
	return fmt.Errorf("kind %T cannot snapshot", store)
}
