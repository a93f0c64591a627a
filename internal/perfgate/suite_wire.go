package perfgate

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mccuckoo"
	"mccuckoo/internal/telemetry/trace"
	"mccuckoo/internal/wire"
)

// wireScale is the resident key count of the wire series.
const wireScale = 1000

// wireNote is the note WireSuite stamps into its report.
const wireNote = "every series carries whole allocations per op only (the sharded store exposes no meter). wire/serve/* and trace/span/* are the 0 allocs/op promises; wire/pipe/get's 6 are net.Pipe's per-deadline timers; trace/span/* (a span and a child at a span site: nil recorder, unsampled, sampled) replace the ungated BENCH_trace.json."

// WireSuite measures the serving layer over a seeded sharded store: the
// in-process serve path (wire.ServeProbe — decode-to-response execution
// into a served connection's reused output buffer, where the zero-copy
// framing must show 0 allocs/op), full loopback-TCP round trips through
// the pooled client, two series that attribute a round trip's cost —
// wire/rtt/echo, a bare echo over loopback TCP (the syscall floor), and
// wire/pipe/get, the client and server over net.Pipe (no syscalls) — and
// the cost of a trace span at a span site. Every series carries
// allocations only: the sharded store exposes no meter.
func WireSuite(o SuiteOptions) (*Report, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	r := NewReport("wire", "go run ./cmd/mcperf record -suite wire", wireNote)

	store, err := mccuckoo.NewSharded(4*wireScale, 4, mccuckoo.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	keys := keysFor(wireScale)
	if err := seedStore(store, keys); err != nil {
		return nil, err
	}

	if err := wireServeSeries(r, o, store, keys); err != nil {
		return nil, err
	}
	if err := wireRTTSeries(r, o, store, keys); err != nil {
		return nil, err
	}
	if err := wireEchoSeries(r, o); err != nil {
		return nil, err
	}
	if err := wirePipeSeries(r, o, store, keys); err != nil {
		return nil, err
	}
	traceSpanSeries(r, o)
	return r, nil
}

func u64le(vs ...uint64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// wireServeSeries drives the in-process serve path: GET hits over rotating
// keys, update PUTs, missing-key DELs, and a 16-key batched GET.
func wireServeSeries(r *Report, o SuiteOptions, store mccuckoo.BatchStore, keys []uint64) error {
	probe, err := wire.NewServeProbe(store)
	if err != nil {
		return err
	}

	const rot = 16
	getF := make([]wire.Frame, rot)
	for i := range getF {
		getF[i] = wire.Frame{Type: wire.OpGet, ID: uint64(i), Payload: u64le(keys[i])}
	}
	putF := wire.Frame{Type: wire.OpPut, ID: 1, Payload: u64le(keys[7], 42)}
	delF := wire.Frame{Type: wire.OpDel, ID: 2, Payload: u64le(keys[9] | 1<<63)}

	batch := append([]byte{wire.OpGet}, binary.LittleEndian.AppendUint32(nil, rot)...)
	batch = append(batch, u64le(keys[:rot]...)...)
	batchF := wire.Frame{Type: wire.OpBatch, ID: 3, Payload: batch}

	r.addSeries("wire/serve/get", o, nil, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(probe.Handle(getF[i&(rot-1)]))
		}
	})
	r.addSeries("wire/serve/put_update", o, nil, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(probe.Handle(putF))
		}
	})
	r.addSeries("wire/serve/del_miss", o, nil, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(probe.Handle(delF))
		}
	})
	r.addSeries(fmt.Sprintf("wire/serve/batch_get/n=%d", rot), o, nil, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(probe.Handle(batchF))
		}
	})
	return nil
}

// wireRTTSeries measures full round trips over loopback TCP: a live server,
// the pooled client, one GET (and one 64-key batched GET) per op. These run
// WireOps iterations — round trips cost microseconds, not nanoseconds.
func wireRTTSeries(r *Report, o SuiteOptions, store mccuckoo.BatchStore, keys []uint64) error {
	srv, err := wire.NewServer(wire.Config{Store: store})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	cli, err := wire.Dial(wire.ClientConfig{Addr: ln.Addr().String(), Conns: 1})
	if err != nil {
		return err
	}
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		return fmt.Errorf("perfgate: wire rtt ping: %w", err)
	}

	ow := o
	ow.Ops = o.WireOps
	var rttErr error
	r.addSeries("wire/rtt/get", ow, nil, func(n int) {
		for i := 0; i < n; i++ {
			v, _, err := cli.Get(keys[i%wireScale])
			if err != nil && rttErr == nil {
				rttErr = err
			}
			sink += v
		}
	})
	const bn = 64
	bkeys := keys[:bn]
	r.addSeries(fmt.Sprintf("wire/rtt/batch_get/n=%d", bn), ow, nil, func(n int) {
		for i := 0; i < n; i++ {
			vs, _, err := cli.GetBatch(bkeys)
			if err != nil && rttErr == nil {
				rttErr = err
			}
			if len(vs) == bn {
				sink += vs[0]
			}
		}
	})
	return rttErr
}

// echoFrame is the size of wire/rtt/echo's messages: about a GET request
// (28 bytes) or response (29 bytes).
const echoFrame = 32

// wireEchoSeries measures the syscall floor of a round trip: 32-byte
// messages echoed over loopback TCP, one goroutine per side, with no
// framing, handoff or table. wire/rtt/get divided by this series is the
// serving stack's own share of a GET.
func wireEchoSeries(r *Report, o SuiteOptions) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var b [echoFrame]byte
		for {
			if _, err := io.ReadFull(nc, b[:]); err != nil {
				return
			}
			if _, err := nc.Write(b[:]); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer nc.Close()
	ow := o
	ow.Ops = o.WireOps
	var b [echoFrame]byte
	var echoErr error
	r.addSeries("wire/rtt/echo", ow, nil, func(n int) {
		for i := 0; i < n && echoErr == nil; i++ {
			b[0] = byte(i)
			if _, echoErr = nc.Write(b[:]); echoErr == nil {
				_, echoErr = io.ReadFull(nc, b[:])
			}
			sink += uint64(b[0])
		}
	})
	return echoErr
}

// pipeListener is a net.Listener whose connections are the server ends of
// net.Pipe pairs, handed over by its dial method.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial is a wire.ClientConfig.Dial that connects to the listener.
func (l *pipeListener) dial(string, time.Duration) (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// wirePipeSeries measures wire/rtt/get's path with the kernel taken out:
// the pooled client and a Server over net.Pipe. What it costs beyond the
// probe's serve path is framing, handoffs and goroutine switches.
func wirePipeSeries(r *Report, o SuiteOptions, store mccuckoo.BatchStore, keys []uint64) error {
	srv, err := wire.NewServer(wire.Config{Store: store})
	if err != nil {
		return err
	}
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	cli, err := wire.Dial(wire.ClientConfig{Addr: "pipe", Conns: 1, Dial: ln.dial})
	if err != nil {
		return err
	}
	defer cli.Close()
	ow := o
	ow.Ops = o.WireOps
	var pipeErr error
	r.addSeries("wire/pipe/get", ow, nil, func(n int) {
		for i := 0; i < n; i++ {
			v, _, err := cli.Get(keys[i%wireScale])
			if err != nil && pipeErr == nil {
				pipeErr = err
			}
			sink += v
		}
	})
	return pipeErr
}

// traceSpanSeries measures one span and a child span opened and finished at
// a span site: with tracing off (a nil recorder), on but unsampled, and
// sampled, where both spans are written to the recorder's ring. All three
// paths are allocation-free.
func traceSpanSeries(r *Report, o SuiteOptions) {
	for _, c := range []struct {
		name string
		rec  *trace.Recorder
	}{
		{"disabled", nil},
		{"unsampled", trace.New(trace.Options{Sample: 1 << 30})},
		{"sampled", trace.New(trace.Options{Sample: 1})},
	} {
		rec := c.rec
		r.addSeries("trace/span/"+c.name, o, nil, func(n int) {
			for i := 0; i < n; i++ {
				sp := rec.Start(rec.Begin(), trace.KindClientOp)
				child := sp.StartChild(trace.KindTableOp)
				child.Finish()
				sp.Finish()
				sink += uint64(child.SpanID)
			}
		})
	}
}
