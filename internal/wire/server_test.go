package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"mccuckoo"
)

// startServer launches a Server over a fresh loopback listener and returns
// its address plus a shutdown func that asserts a clean drain.
func startServer(t *testing.T, store mccuckoo.BatchStore, mod func(*Config)) (*Server, string, func()) {
	t.Helper()
	cfg := Config{Store: store, Logf: t.Logf}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, shutdown := serve(t, srv)
	return srv, addr, shutdown
}

// serve serves srv on a loopback listener and returns its address and the
// func that shuts it down.
func serve(t *testing.T, srv *Server) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return ln.Addr().String(), shutdown
}

func dialClient(t *testing.T, addr string, mod func(*ClientConfig)) *Client {
	t.Helper()
	cfg := ClientConfig{Addr: addr}
	if mod != nil {
		mod(&cfg)
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newConcurrentTable(t *testing.T, capacity int) *mccuckoo.Concurrent {
	t.Helper()
	tab, err := mccuckoo.New(capacity, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	return mccuckoo.NewConcurrent(tab)
}

// TestServerBasicOps runs every opcode end to end against a single-slot
// table wrapped with NewConcurrent.
func TestServerBasicOps(t *testing.T) {
	_, addr, shutdown := startServer(t, newConcurrentTable(t, 4096), nil)
	defer shutdown()
	c := dialClient(t, addr, nil)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if r, err := c.Put(1, 100); err != nil || r.Status != mccuckoo.Placed {
		t.Fatalf("put: %+v, %v", r, err)
	}
	if r, err := c.Put(1, 101); err != nil || r.Status != mccuckoo.Updated {
		t.Fatalf("re-put: %+v, %v", r, err)
	}
	if v, ok, err := c.Get(1); err != nil || !ok || v != 101 {
		t.Fatalf("get: %d, %v, %v", v, ok, err)
	}
	if _, ok, err := c.Get(2); err != nil || ok {
		t.Fatalf("negative get hit: %v", err)
	}
	if removed, err := c.Del(1); err != nil || !removed {
		t.Fatalf("del: %v, %v", removed, err)
	}
	if removed, err := c.Del(1); err != nil || removed {
		t.Fatalf("double del: %v, %v", removed, err)
	}

	// Batches.
	const n = 500
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i+10), uint64(i)*7
	}
	res, err := c.PutBatch(keys, vals)
	if err != nil {
		t.Fatalf("put batch: %v", err)
	}
	for i, r := range res {
		if r.Status == mccuckoo.Failed {
			t.Fatalf("batch put %d failed", i)
		}
	}
	gv, gf, err := c.GetBatch(append(keys, 99999))
	if err != nil {
		t.Fatalf("get batch: %v", err)
	}
	for i := range keys {
		if !gf[i] || gv[i] != vals[i] {
			t.Fatalf("batch get %d: %d,%v want %d,true", i, gv[i], gf[i], vals[i])
		}
	}
	if gf[n] {
		t.Fatal("batch get hit a never-inserted key")
	}
	removed, err := c.DelBatch(keys[:n/2])
	if err != nil {
		t.Fatalf("del batch: %v", err)
	}
	for i, ok := range removed {
		if !ok {
			t.Fatalf("batch del %d reported absent", i)
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Len != n/2 || st.Capacity == 0 || st.Inserts == 0 || st.Lookups == 0 || st.Deletes == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// rawConn is a minimal frame-level client for tests that must control
// pipelining and observe responses exactly as sent.
type rawConn struct {
	t   *testing.T
	nc  net.Conn
	buf []byte
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) send(frames ...Frame) {
	r.t.Helper()
	var b []byte
	for _, f := range frames {
		b = AppendFrame(b, f)
	}
	if _, err := r.nc.Write(b); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

func (r *rawConn) recv() Frame {
	r.t.Helper()
	f, buf, err := ReadFrame(r.nc, DefaultMaxPayload, r.buf)
	if err != nil {
		r.t.Fatalf("raw read: %v", err)
	}
	r.buf = buf
	f.Payload = append([]byte(nil), f.Payload...)
	return f
}

// TestServerPipelined is the acceptance load: 4 connections, each with 256
// requests in flight before the first response is read, under -race. Every
// request must be answered exactly once, matched by id, with the correct
// result — zero lost, zero misordered.
func TestServerPipelined(t *testing.T) {
	store, err := mccuckoo.NewSharded(1<<16, 8, mccuckoo.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	const preload = 1000
	for i := 0; i < preload; i++ {
		store.Insert(uint64(i), uint64(i)*3+1)
	}
	_, addr, shutdown := startServer(t, store, nil)
	defer shutdown()

	const conns = 4
	const inflight = 256
	var wg sync.WaitGroup
	for cn := 0; cn < conns; cn++ {
		wg.Add(1)
		go func(cn int) {
			defer wg.Done()
			rc := dialRaw(t, addr)
			// Blast every request before reading anything: even GETs are
			// interleaved with PUTs into a per-connection key range.
			frames := make([]Frame, inflight)
			for i := 0; i < inflight; i++ {
				id := uint64(cn)<<32 | uint64(i)
				if i%2 == 0 {
					frames[i] = Frame{Type: OpGet, ID: id,
						Payload: appendU64(nil, uint64(i%preload))}
				} else {
					p := appendU64(nil, uint64(1_000_000+cn*inflight+i))
					p = appendU64(p, id)
					frames[i] = Frame{Type: OpPut, ID: id, Payload: p}
				}
			}
			rc.send(frames...)

			got := make(map[uint64]Frame, inflight)
			for i := 0; i < inflight; i++ {
				f := rc.recv()
				if _, dup := got[f.ID]; dup {
					t.Errorf("conn %d: duplicate response id %#x", cn, f.ID)
					return
				}
				got[f.ID] = f
			}
			for i := 0; i < inflight; i++ {
				id := uint64(cn)<<32 | uint64(i)
				f, ok := got[id]
				if !ok {
					t.Errorf("conn %d: lost response for id %#x", cn, id)
					return
				}
				if f.Status() != StatusOK {
					t.Errorf("conn %d: id %#x status %d", cn, id, f.Status())
					return
				}
				c := cursor{b: f.Payload}
				if i%2 == 0 {
					found, v := c.u8(), c.u64()
					want := uint64(i%preload)*3 + 1
					if !c.ok() || found != 1 || v != want {
						t.Errorf("conn %d: get %#x = %d,%d want %d,1", cn, id, v, found, want)
						return
					}
				} else {
					status, _ := c.u8(), c.u32()
					if !c.ok() || mccuckoo.Status(status) == mccuckoo.Failed {
						t.Errorf("conn %d: put %#x status %d", cn, id, status)
						return
					}
				}
			}
		}(cn)
	}
	wg.Wait()
}

// gatedStore blocks every Lookup until the gate opens, letting tests hold a
// served connection mid-request deterministically.
type gatedStore struct {
	mccuckoo.BatchStore
	gate chan struct{}
}

func (g *gatedStore) Lookup(key uint64) (uint64, bool) {
	<-g.gate
	return g.BatchStore.Lookup(key)
}

// TestServerDrain: queued requests survive Shutdown — the drain completes
// them and flushes their responses before the connection closes.
func TestServerDrain(t *testing.T) {
	gate := make(chan struct{})
	store := &gatedStore{BatchStore: newConcurrentTable(t, 1024), gate: gate}
	srv, addr, _ := startServer(t, store, nil)

	tab := store.BatchStore
	tab.Insert(7, 77)

	rc := dialRaw(t, addr)
	rc.send(
		Frame{Type: OpGet, ID: 1, Payload: appendU64(nil, 7)},
		Frame{Type: OpGet, ID: 2, Payload: appendU64(nil, 7)},
		Frame{Type: OpGet, ID: 3, Payload: appendU64(nil, 7)},
	)
	// Wait until the server has read all three frames off the socket, so
	// none can be lost to the drain race between socket and work queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.bytesIn.Load() < 3*(8+FrameOverhead) {
		if time.Now().After(deadline) {
			t.Fatal("server never read the pipelined requests")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment to interrupt the reader, then release the
	// store: the three queued lookups must still be answered.
	time.Sleep(20 * time.Millisecond)
	close(gate)

	for i := 0; i < 3; i++ {
		f := rc.recv()
		if f.Status() != StatusOK {
			t.Fatalf("drained response %d: status %d", i, f.Status())
		}
		c := cursor{b: f.Payload}
		found, v := c.u8(), c.u64()
		if !c.ok() || found != 1 || v != 77 {
			t.Fatalf("drained response %d: %d,%d", i, v, found)
		}
	}
	if _, _, err := ReadFrame(rc.nc, DefaultMaxPayload, nil); err == nil {
		t.Fatal("connection still open after drain")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestServerOneGoroutinePerConn: a served connection runs on exactly one
// goroutine, the one running serveConn, which reads, executes and writes.
// Goroutines are read from the goroutine profile so that unrelated ones
// (the test's, the listener's) do not count.
func TestServerOneGoroutinePerConn(t *testing.T) {
	_, addr, shutdown := startServer(t, newConcurrentTable(t, 1024), nil)
	defer shutdown()
	rc := dialRaw(t, addr)
	rc.send(Frame{Type: OpPing, ID: 1})
	if f := rc.recv(); f.Status() != StatusOK {
		t.Fatalf("ping: status %d", f.Status())
	}
	var prof bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&prof, 2); err != nil {
		t.Fatal(err)
	}
	// debug=2 prints one stack per goroutine, separated by blank lines;
	// a frame line starts with the function's qualified name.
	n := 0
	for _, stack := range strings.Split(prof.String(), "\n\n") {
		for _, line := range strings.Split(stack, "\n") {
			if strings.HasPrefix(line, "mccuckoo/internal/wire.(*Server).serveConn") {
				n++
				break
			}
		}
	}
	if n != 1 {
		t.Fatalf("%d goroutines run serveConn or a closure inside it, want 1:\n%s", n, prof.String())
	}
}

// TestServerTimeouts: the idle deadline closes a connection that sends
// nothing or never completes a frame, and the write deadline drops one whose
// client stopped reading; with one goroutine per connection the write deadline is the only
// thing that frees the last. Each time the connection's goroutine exits, so
// the active-connections gauge returns to 0 and Shutdown stays clean.
func TestServerTimeouts(t *testing.T) {
	srv, err := NewServer(Config{Store: newConcurrentTable(t, 1024), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.idle, srv.write = 300*time.Millisecond, 200*time.Millisecond
	addr, shutdown := serve(t, srv)
	defer shutdown()
	// served waits for the connection to be admitted (want 1) or released
	// (want 0).
	served := func(want int64, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for srv.active.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d connections active, want %d", what, srv.active.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The server arms the idle deadline after the dial begins, so the
	// connection cannot close sooner than the idle deadline after start.
	start := time.Now()
	idle := dialRaw(t, addr)
	served(1, "idle connection")
	if err := idle.nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(idle.nc, DefaultMaxPayload, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection: read %v, want EOF from the server closing it", err)
	}
	if d := time.Since(start); d < 300*time.Millisecond {
		t.Fatalf("idle connection closed after %v, before the 300ms idle deadline", d)
	}
	served(0, "after the idle timeout")

	// A frame trickled a byte per 50ms takes a second to complete. The idle
	// deadline is rearmed only by a completed frame, so the trickle does
	// not keep the connection alive and the PING is never answered.
	trickle := dialRaw(t, addr)
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		for _, b := range AppendFrame(nil, Frame{Type: OpPing, ID: 2}) {
			if _, err := trickle.nc.Write([]byte{b}); err != nil {
				return // the server dropped the connection
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	if err := trickle.nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if f, _, err := ReadFrame(trickle.nc, DefaultMaxPayload, nil); err == nil {
		t.Fatalf("trickled connection answered %+v; the trickle kept it alive", f)
	}
	served(0, "after the trickled frame timed out")
	<-trickled

	// Each 4096-key BATCH GET answers with 36 KiB, so 400 of them overflow
	// the socket buffers of a client that never reads.
	stalled := dialRaw(t, addr)
	served(1, "stalled connection")
	keys := batchReq(OpGet, 4096, 8)
	for i := 0; i < 4096; i++ {
		keys = appendU64(keys, uint64(i))
	}
	req := AppendFrame(nil, Frame{Type: OpBatch, ID: 1, Payload: keys})
	written := make(chan struct{})
	go func() {
		defer close(written)
		for i := 0; i < 400; i++ {
			if _, err := stalled.nc.Write(req); err != nil {
				return // the server dropped the connection
			}
		}
	}()
	served(0, "after the write timeout")
	stalled.nc.Close()
	<-written
}

// panicStore panics on one magic key.
type panicStore struct {
	mccuckoo.BatchStore
}

func (p *panicStore) Lookup(key uint64) (uint64, bool) {
	if key == 666 {
		panic("store exploded")
	}
	return p.BatchStore.Lookup(key)
}

// TestServerPanicIsolation: a panicking request is answered ERR and the
// connection keeps serving.
func TestServerPanicIsolation(t *testing.T) {
	store := &panicStore{BatchStore: newConcurrentTable(t, 1024)}
	store.Insert(1, 10)
	srv, addr, shutdown := startServer(t, store, nil)
	defer shutdown()
	c := dialClient(t, addr, nil)

	_, _, err := c.Get(666)
	var se *ServerError
	if !errors.As(err, &se) || !bytes.Contains([]byte(se.Msg), []byte("internal error")) {
		t.Fatalf("panic request: %v, want internal-error ServerError", err)
	}
	if v, ok, err := c.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("connection unusable after panic: %d, %v, %v", v, ok, err)
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", srv.panics.Load())
	}
}

// TestServerConnLimit: the connection past MaxConns gets one ERR frame and
// is closed; the admitted connection is unaffected.
func TestServerConnLimit(t *testing.T) {
	srv, addr, shutdown := startServer(t, newConcurrentTable(t, 1024), func(c *Config) { c.MaxConns = 1 })
	defer shutdown()
	c := dialClient(t, addr, func(cc *ClientConfig) { cc.Conns = 1 })
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	f, _, err := ReadFrame(nc, DefaultMaxPayload, nil)
	if err != nil {
		t.Fatalf("over-limit conn: %v, want ERR frame", err)
	}
	if f.Status() != StatusErr || f.ID != 0 {
		t.Fatalf("over-limit conn got status %d id %d", f.Status(), f.ID)
	}
	if _, _, err := ReadFrame(nc, DefaultMaxPayload, nil); err == nil {
		t.Fatal("over-limit conn not closed")
	}
	if srv.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", srv.rejected.Load())
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("admitted conn broken by rejection: %v", err)
	}
}

// TestServerMalformedPayload: a structurally valid frame with a bad payload
// gets ERR; the connection survives. A corrupt frame kills the connection.
func TestServerMalformedPayload(t *testing.T) {
	srv, addr, shutdown := startServer(t, newConcurrentTable(t, 1024), nil)
	defer shutdown()

	rc := dialRaw(t, addr)
	rc.send(Frame{Type: OpGet, ID: 1, Payload: []byte{1, 2, 3}}) // not 8 bytes
	if f := rc.recv(); f.Status() != StatusErr {
		t.Fatalf("malformed get: status %d, want ERR", f.Status())
	}
	rc.send(Frame{Type: 42, ID: 2})
	if f := rc.recv(); f.Status() != StatusErr {
		t.Fatalf("unknown opcode: status %d, want ERR", f.Status())
	}
	rc.send(Frame{Type: OpBatch, ID: 3, Payload: appendU32(appendU8(nil, OpGet), 999)})
	if f := rc.recv(); f.Status() != StatusErr {
		t.Fatalf("lying batch count: status %d, want ERR", f.Status())
	}
	// Connection still healthy after three ERRs.
	rc.send(Frame{Type: OpPing, ID: 4})
	if f := rc.recv(); f.Status() != StatusOK || f.ID != 4 {
		t.Fatalf("ping after errors: %+v", f)
	}

	// A frame with a corrupt checksum is a protocol violation: the server
	// must drop the connection.
	bad := AppendFrame(nil, Frame{Type: OpPing, ID: 5})
	bad[len(bad)-1] ^= 0xff
	if _, err := rc.nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(rc.nc, DefaultMaxPayload, nil); err == nil {
		t.Fatal("connection survived a corrupt frame")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.badFrames.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad-frame counter never incremented")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerUnderTrafficWithScrape is the race smoke named in ci.sh: a
// fleet of clients hammers every op while scrapers concurrently read the
// server exposition and the table's own stats.
func TestServerUnderTrafficWithScrape(t *testing.T) {
	tel := mccuckoo.NewTelemetry()
	store, err := mccuckoo.NewSharded(1<<13, 8, mccuckoo.WithSeed(5), mccuckoo.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, shutdown := startServer(t, store, nil)
	defer shutdown()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			// A scrape snapshots live gauges, which walks the table; pace
			// the loop so scrapes overlap traffic without dominating it.
			for {
				select {
				case <-stop:
					return
				case <-time.After(25 * time.Millisecond):
				}
				if err := srv.WritePrometheus(io.Discard); err != nil {
					t.Errorf("server scrape: %v", err)
					return
				}
				if err := tel.WriteMetrics(io.Discard); err != nil {
					t.Errorf("telemetry scrape: %v", err)
					return
				}
				_ = store.Stats()
				_ = store.LoadRatio()
			}
		}()
	}

	const fleet = 8
	c := dialClient(t, addr, func(cc *ClientConfig) { cc.Conns = 4 })
	var wg sync.WaitGroup
	for g := 0; g < fleet; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) << 20
			keys := make([]uint64, 64)
			vals := make([]uint64, 64)
			for i := range keys {
				keys[i], vals[i] = base+uint64(i), uint64(i)
			}
			for round := 0; round < 30; round++ {
				if _, err := c.PutBatch(keys, vals); err != nil {
					t.Errorf("fleet %d: put batch: %v", g, err)
					return
				}
				if _, _, err := c.GetBatch(keys); err != nil {
					t.Errorf("fleet %d: get batch: %v", g, err)
					return
				}
				if _, _, err := c.Get(base); err != nil {
					t.Errorf("fleet %d: get: %v", g, err)
					return
				}
				if _, err := c.Del(base + uint64(round)); err != nil {
					t.Errorf("fleet %d: del: %v", g, err)
					return
				}
				if _, err := c.Stats(); err != nil {
					t.Errorf("fleet %d: stats: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	var buf bytes.Buffer
	if err := srv.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mccuckoo_server_requests_total{op=\"batch\"}",
		"mccuckoo_server_connections_active",
		"mccuckoo_server_bytes_read_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %s:\n%s", want, buf.String())
		}
	}
}

// TestCheckpointUnderTraffic checkpoints a served Concurrent with SaveFile
// while two connections issue PUTs and GETs. Every checkpoint must load as
// a single-slot snapshot holding only values the clients wrote, and the
// final one must hold every PUT.
func TestCheckpointUnderTraffic(t *testing.T) {
	store := newConcurrentTable(t, 1<<13)
	_, addr, shutdown := startServer(t, store, nil)
	defer shutdown()
	path := filepath.Join(t.TempDir(), "table.snap")

	// checkpoint saves, reloads and validates one snapshot, returning its
	// population.
	checkpoint := func() int {
		if err := store.SaveFile(path); err != nil {
			t.Errorf("SaveFile: %v", err)
			return -1
		}
		snap, err := mccuckoo.LoadFile(path)
		if err != nil {
			t.Errorf("LoadFile: %v", err)
			return -1
		}
		snap.Range(func(k, v uint64) bool {
			if v != k*3 {
				t.Errorf("checkpoint holds %d=%d, never written", k, v)
				return false
			}
			return true
		})
		return snap.Len()
	}

	const conns, perConn = 2, 1000
	firstSaved := make(chan struct{})
	stop := make(chan struct{})
	saverDone := make(chan struct{})
	go func() {
		defer close(saverDone)
		checkpoint()
		close(firstSaved)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if checkpoint() < 0 {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		c := dialClient(t, addr, nil)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				if i == perConn/2 {
					<-firstSaved // at least one checkpoint lands mid-traffic
				}
				k := uint64(g*perConn + i + 1)
				if _, err := c.Put(k, k*3); err != nil {
					t.Errorf("conn %d: put: %v", g, err)
					return
				}
				if v, ok, err := c.Get(k); err != nil || !ok || v != k*3 {
					t.Errorf("conn %d: get %d = (%d,%v,%v)", g, k, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-saverDone
	if n := checkpoint(); n != conns*perConn {
		t.Fatalf("final checkpoint holds %d items, want %d", n, conns*perConn)
	}
}
