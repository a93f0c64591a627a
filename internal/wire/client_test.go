package wire

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mccuckoo/internal/telemetry/trace"
)

// fakeServer speaks raw frames and delegates each request to fn; fn
// returning respond=false swallows the request (for timeout tests).
// closeAfter > 0 closes each connection after that many responses.
type fakeServer struct {
	ln         net.Listener
	fn         func(f Frame) (status byte, payload []byte, respond bool)
	closeAfter int
}

func startFake(t *testing.T, closeAfter int, fn func(f Frame) (byte, []byte, bool)) (string, *fakeServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, fn: fn, closeAfter: closeAfter}
	t.Cleanup(func() { ln.Close() })
	go fs.run()
	return ln.Addr().String(), fs
}

func (fs *fakeServer) run() {
	for {
		nc, err := fs.ln.Accept()
		if err != nil {
			return
		}
		go fs.serve(nc)
	}
}

func (fs *fakeServer) serve(nc net.Conn) {
	defer nc.Close()
	var buf []byte
	responded := 0
	for {
		f, b, err := ReadFrame(nc, DefaultMaxPayload, buf)
		buf = b
		if err != nil {
			return
		}
		status, payload, respond := fs.fn(f)
		if !respond {
			continue
		}
		if _, err := nc.Write(respFrame(f.ID, status, payload)); err != nil {
			return
		}
		responded++
		if fs.closeAfter > 0 && responded >= fs.closeAfter {
			return
		}
	}
}

// chanSink is a test Sink that hands each outcome, its payload copied, to
// a channel.
type chanSink chan sinkResult

type sinkResult struct {
	resp []byte
	err  error
}

func (s chanSink) Done(resp []byte, err error) { s <- sinkResult{bytes.Clone(resp), err} }

// sendWait sends one request through Send and waits for its outcome.
func sendWait(c *Client, tc trace.Context, op byte, payload []byte) ([]byte, error) {
	s := make(chanSink, 1)
	c.Send(tc, op, payload, s)
	r := <-s
	return r.resp, r.err
}

func TestClientTimeout(t *testing.T) {
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		return 0, nil, false // never answer
	})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1, RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ping()
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("ping: %v, want timeout", err)
	}
}

// TestClientTimeoutFailsAlone: a request the server swallows times out
// alone. The connection survives, the next request on it succeeds, and
// the pool redials nothing.
func TestClientTimeoutFailsAlone(t *testing.T) {
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		return StatusOK, nil, f.ID != 1 // swallow the first request
	})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1, RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("swallowed ping: %v, want timeout", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d after the timeout: %v", i, err)
		}
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("Reconnects() = %d, want 0", n)
	}
}

// TestClientPipelinedTimeoutsKeepOrder: goroutines pipeline GETs on one
// connection to a server that answers in order but stalls past the request
// timeout on each goroutine's tenth key. The stalled calls and those queued
// behind them time out; every call that succeeds gets its own key's
// answer, late responses are dropped, and the connection is never redialed.
func TestClientPipelinedTimeoutsKeepOrder(t *testing.T) {
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		k := (&cursor{b: f.Payload}).u64()
		if k%100 == 10 {
			time.Sleep(80 * time.Millisecond)
		}
		return StatusOK, appendU64(appendU8(nil, 1), k), true
	})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	var ok, timedOut atomic.Int64
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g * 100; k < g*100+30; k++ {
				v, found, err := c.Get(k)
				switch {
				case err == nil && found && v == k:
					ok.Add(1)
				case err != nil && strings.Contains(err.Error(), "timed out"):
					timedOut.Add(1)
				default:
					t.Errorf("get %d: %d, %v, %v", k, v, found, err)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 || timedOut.Load() == 0 || c.Reconnects() != 0 {
		t.Fatalf("%d answered, %d timed out, %d reconnects; want some of each and none", ok.Load(), timedOut.Load(), c.Reconnects())
	}
}

// TestClientRedialStallsOnlyItsSlot: while one slot's redial blocks in
// the Dial hook, a call landing on a healthy slot still returns.
func TestClientRedialStallsOnlyItsSlot(t *testing.T) {
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		return StatusOK, nil, true
	})
	var (
		mu      sync.Mutex
		dialed  []net.Conn
		entered = make(chan struct{})
		unblock = make(chan struct{})
	)
	c, err := Dial(ClientConfig{Addr: addr, Conns: 2, Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		n := len(dialed)
		mu.Unlock()
		if n == 2 { // the redial of slot 0
			close(entered)
			<-unblock
		}
		nc, err := net.DialTimeout("tcp", addr, timeout)
		mu.Lock()
		dialed = append(dialed, nc)
		mu.Unlock()
		return nc, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer close(unblock)
	c.rr.Store(1) // the next calls land on slots 0, 1, 0, 1, ...
	for i := 0; i < 2; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("warm-up ping %d: %v", i, err)
		}
	}
	dialed[0].Close()
	for cc := c.conns[0].Load(); !cc.dead.Load(); {
		time.Sleep(time.Millisecond)
	}
	stuck := make(chan error, 1)
	go func() { stuck <- c.Ping() }() // slot 0: redials, and blocks
	<-entered
	healthy := make(chan error, 1)
	go func() { healthy <- c.Ping() }() // slot 1
	select {
	case err := <-healthy:
		if err != nil {
			t.Fatalf("ping on the healthy slot: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a call on the healthy slot waited for slot 0's redial")
	}
	unblock <- struct{}{}
	if err := <-stuck; err != nil {
		t.Fatalf("ping on the redialed slot: %v", err)
	}
}

func TestClientServerError(t *testing.T) {
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		return StatusErr, []byte("nope"), true
	})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var se *ServerError
	if err := c.Ping(); !errors.As(err, &se) || se.Msg != "nope" {
		t.Fatalf("ping: %v, want ServerError(nope)", err)
	}
}

// TestClientReconnect: a connection the server drops is replaced on the
// next request instead of poisoning the pool.
func TestClientReconnect(t *testing.T) {
	addr, _ := startFake(t, 1, func(f Frame) (byte, []byte, bool) {
		return StatusOK, nil, true
	})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		// The server closed the connection after responding; wait for the
		// client's read loop to notice so the next conn() call redials
		// instead of racing the write against the close.
		deadline := time.Now().Add(5 * time.Second)
		for {
			cc := c.conns[0].Load()
			dead := cc != nil && cc.dead.Load()
			if dead || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestClientReconnectsCountRedials: Reconnects counts a dead connection
// redialed, not dial attempts. Failed dials before the first connection
// count nothing; after it dies, failed dials count nothing and the one
// that succeeds counts once.
func TestClientReconnectsCountRedials(t *testing.T) {
	addr, _ := startFake(t, 1, func(f Frame) (byte, []byte, bool) {
		return StatusOK, nil, true
	})
	var failDials atomic.Int32
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1, Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
		if failDials.Add(-1) >= 0 {
			return nil, errors.New("refused")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round, want := range []int64{0, 1} {
		failDials.Store(2)
		for i := 0; i < 2; i++ {
			if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "refused") {
				t.Fatalf("round %d: ping over a refused dial: %v", round, err)
			}
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("round %d: ping: %v", round, err)
		}
		if n := c.Reconnects(); n != want {
			t.Fatalf("round %d: Reconnects() = %d, want %d", round, n, want)
		}
		for cc := c.conns[0].Load(); !cc.dead.Load(); { // the server closed it
			time.Sleep(time.Millisecond)
		}
	}
}

// TestClientNeverSendsRequestExpiredInDial: a request that times out while
// its connection dials is dropped from the write buffer, so the server
// never sees a request its client gave up on; the next one goes through.
func TestClientNeverSendsRequestExpiredInDial(t *testing.T) {
	seen := make(chan uint64, 4)
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		seen <- f.ID
		return StatusOK, nil, true
	})
	unblock := make(chan struct{})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1, RequestTimeout: 200 * time.Millisecond,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			<-unblock
			return net.DialTimeout("tcp", addr, timeout)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("ping during the dial: %v, want timeout", err)
	}
	second := make(chan error, 1)
	go func() { second <- c.Ping() }()
	for cc := c.conns[0].Load(); ; time.Sleep(time.Millisecond) {
		cc.mu.Lock()
		n := len(cc.queue)
		cc.mu.Unlock()
		if n == 2 { // the second ping is buffered behind the first
			break
		}
	}
	close(unblock)
	if err := <-second; err != nil {
		t.Fatalf("ping after the dial: %v", err)
	}
	if id := <-seen; id != 2 {
		t.Fatalf("server saw request %d first, want only request 2", id)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if id := <-seen; id != 3 {
		t.Fatalf("server saw request %d, want 3", id)
	}
}

// TestClientCloseStopsTimer: closing a client stops each connection's
// request timer. A pending timer would keep the closed connection and all
// it references reachable until it fired, a RequestTimeout later.
func TestClientCloseStopsTimer(t *testing.T) {
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		return StatusOK, nil, true
	})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1, RequestTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	cc := c.conns[0].Load()
	c.Close()
	if cc.timer.Stop() {
		t.Fatal("the closed connection's request timer was still armed")
	}
}

// TestClientSlotAfterCounterWrap: the round-robin counter is reduced before
// it is converted to int, so a counter past the int range still picks a
// valid pool slot instead of a negative index.
func TestClientSlotAfterCounterWrap(t *testing.T) {
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		return StatusOK, nil, true
	})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.rr.Store(1<<63 - 1)
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
}

// TestClientCallAllocs pins what one call allocates over the recording
// client's net.Pipe connection. AllocsPerRun counts the whole process, and
// every count here is the scripted server's record and reply and net.Pipe's
// per-call deadline timer: the client itself allocates nothing per call
// (TestClientCallZeroAlloc). The payload is built on the stack, the request
// frame in the connection's reused write buffer, and the response lands in
// a reused waiter's buffer.
func TestClientCallAllocs(t *testing.T) {
	cli, _ := newRecordingClient(t)
	for _, tc := range []struct {
		name string
		want float64
		call func() error
	}{
		{"Get", 8, func() error { _, _, err := cli.Get(5); return err }},
		{"Put", 8, func() error { _, err := cli.Put(5, 6); return err }},
		{"Del", 7, func() error { _, err := cli.Del(5); return err }},
		{"VGet", 9, func() error { _, _, _, err := cli.VGet(trace.Context{}, 5); return err }},
	} {
		var err error
		call := func() {
			if e := tc.call(); e != nil {
				err = e
			}
		}
		call() // dial and size the write buffer
		n := testing.AllocsPerRun(200, call)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != tc.want {
			t.Errorf("%s: %v allocs per call, want %v", tc.name, n, tc.want)
		}
	}
}

func TestClientClosed(t *testing.T) {
	addr, _ := startFake(t, 0, func(f Frame) (byte, []byte, bool) {
		return StatusOK, nil, true
	})
	c, err := Dial(ClientConfig{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("ping after close: %v, want ErrClientClosed", err)
	}
}
