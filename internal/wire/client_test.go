package wire

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
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
			c.mu.Lock()
			dead := c.conns[0] != nil && c.conns[0].dead.Load()
			c.mu.Unlock()
			if dead || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
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
// client's net.Pipe connection. AllocsPerRun counts the whole process, so
// each count includes the scripted server's record and reply and net.Pipe's
// deadline timer beside the client's waiter channel, request timer and
// response copy. The payload is built on the stack and the request frame in
// the connection's reused write buffer, not in a frame of its own.
func TestClientCallAllocs(t *testing.T) {
	cli, _ := newRecordingClient(t)
	for _, tc := range []struct {
		name string
		want float64
		call func() error
	}{
		{"Get", 14, func() error { _, _, err := cli.Get(5); return err }},
		{"Put", 14, func() error { _, err := cli.Put(5, 6); return err }},
		{"Del", 13, func() error { _, err := cli.Del(5); return err }},
		{"VGet", 15, func() error { _, _, _, err := cli.VGet(5); return err }},
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
