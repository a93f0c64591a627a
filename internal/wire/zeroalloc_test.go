package wire

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"mccuckoo"
	"mccuckoo/internal/keep"
)

// newProbeHarness builds a ServeProbe over a populated single-writer table.
// The probe is single-threaded, matching a served connection, so a plain
// *mccuckoo.Table is a valid store here.
func newProbeHarness(tb testing.TB) (*ServeProbe, []uint64) {
	tb.Helper()
	tab, err := mccuckoo.New(1<<12, mccuckoo.WithSeed(11))
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 1
		if r := tab.Insert(keys[i], uint64(i)); r.Status == mccuckoo.Failed {
			tb.Fatalf("seed insert %d failed", i)
		}
	}
	p, err := NewServeProbe(tab)
	if err != nil {
		tb.Fatalf("NewServeProbe: %v", err)
	}
	return p, keys
}

// TestServePathZeroAlloc pins the zero-copy serve path: once the output
// buffer and the handler's scratch are sized, handling GET / update-PUT /
// miss-DEL / PING / batch GET requests allocates nothing. Requests are
// executed in place in the read buffer and responses are appended to the
// reused output buffer.
func TestServePathZeroAlloc(t *testing.T) {
	p, keys := newProbeHarness(t)

	get := Frame{Type: OpGet, ID: 1, Payload: appendU64(nil, keys[7])}
	put := Frame{Type: OpPut, ID: 2, Payload: appendU64(appendU64(nil, keys[9]), 42)}
	del := Frame{Type: OpDel, ID: 3, Payload: appendU64(nil, 0xdead0000dead)} // miss
	ping := Frame{Type: OpPing, ID: 4}

	batch := appendU32(appendU8(nil, OpGet), 16)
	for i := 0; i < 16; i++ {
		batch = appendU64(batch, keys[i])
	}
	bget := Frame{Type: OpBatch, ID: 5, Payload: batch}

	for _, tc := range []struct {
		name string
		f    Frame
	}{
		{"get", get}, {"put_update", put}, {"del_miss", del},
		{"ping", ping}, {"batch_get", bget},
	} {
		f := tc.f
		if st := p.Handle(f); st != StatusOK {
			t.Fatalf("%s: status %d, want OK", tc.name, st)
		}
		if n := testing.AllocsPerRun(200, func() { p.Handle(f) }); n != 0 {
			t.Errorf("%s: %v allocs/op on the steady-state serve path, want 0", tc.name, n)
		}
	}
}

// sizeOf is the byte size of s's backing array.
func sizeOf[T any](s []T) int { return cap(s) * int(unsafe.Sizeof(*new(T))) }

// batchReq starts a BATCH request payload of n records of recordSize bytes.
func batchReq(sub byte, n, recordSize int) []byte {
	return appendU32(appendU8(make([]byte, 0, 5+n*recordSize), sub), uint32(n))
}

// batchPut encodes a BATCH PUT payload of n keys.
func batchPut(n int) []byte {
	p := batchReq(OpPut, n, 16)
	for i := 0; i < n; i++ {
		p = appendU64(appendU64(p, uint64(i)*2654435761+1), uint64(i))
	}
	return p
}

// TestServeProbeKeepRule: after a 4096-key BATCH PUT (a 64 KiB request and
// a 20 KiB response) and one GET, neither the handler's scratch nor its
// output buffer holds a buffer larger than keep.Bytes. Before the keep rule
// the connection kept the batch-sized buffers for its lifetime.
func TestServeProbeKeepRule(t *testing.T) {
	tab, err := mccuckoo.New(1<<14, mccuckoo.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewServeProbe(tab)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Handle(Frame{Type: OpBatch, ID: 1, Payload: batchPut(4096)}); st != StatusOK {
		t.Fatalf("batch put: status %d", st)
	}
	if st := p.Handle(Frame{Type: OpGet, ID: 2, Payload: appendU64(nil, 1)}); st != StatusOK {
		t.Fatalf("get: status %d", st)
	}
	h := p.h
	for _, s := range []struct {
		name  string
		bytes int
	}{
		{"out", sizeOf(h.out)},
		{"pbuf", sizeOf(h.pbuf)},
		{"keys", sizeOf(h.keys)},
		{"vals", sizeOf(h.vals)},
		{"results", sizeOf(h.results)},
		{"founds", sizeOf(h.founds)},
		{"removed", sizeOf(h.removed)},
		{"ents", sizeOf(h.ents)},
		{"statuses", sizeOf(h.statuses)},
	} {
		if s.bytes > keep.Bytes {
			t.Errorf("handler buffer %s keeps %d bytes, want at most %d", s.name, s.bytes, keep.Bytes)
		}
	}
}

// TestLoopbackGetZeroAllocAfterBatch: a server connection that carried a
// 4096-key BATCH PUT, and the frame client that sent it, go back to
// serving GETs with 0 allocations. The keep rule drops the batch-sized
// buffers; the steady state reuses small ones. AllocsPerRun counts the
// whole process: the client's write and read and the server connection's
// read, execution and write.
func TestLoopbackGetZeroAllocAfterBatch(t *testing.T) {
	_, addr, shutdown := startServer(t, newConcurrentTable(t, 1<<14), nil)
	defer shutdown()
	raw := dialRaw(t, addr)
	raw.send(Frame{Type: OpBatch, ID: 1, Payload: batchPut(4096)})
	if f := raw.recv(); f.Status() != StatusOK {
		t.Fatalf("batch put: status %d", f.Status())
	}
	if err := raw.nc.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	req := AppendFrame(nil, Frame{Type: OpGet, ID: 2, Payload: appendU64(nil, 1)})
	buf := raw.buf
	var bad error
	get := func() {
		if _, err := raw.nc.Write(req); err != nil {
			bad = err
			return
		}
		f, b, err := ReadFrame(raw.nc, DefaultMaxPayload, buf)
		if err != nil {
			bad = err
			return
		}
		if c := (cursor{b: f.Payload}); f.Status() != StatusOK || c.u8() != 1 || c.u64() != 0 {
			bad = fmt.Errorf("get: status %d payload %x", f.Status(), f.Payload)
		}
		buf = keep.Slice(b)
	}
	for i := 0; i < 8; i++ {
		get() // size the steady-state buffers
	}
	n := testing.AllocsPerRun(200, get)
	if bad != nil {
		t.Fatal(bad)
	}
	if n != 0 {
		t.Errorf("%v allocs per GET after a 4096-key batch, want 0", n)
	}
}

// TestClientCallZeroAlloc: the pooled client's Get, Put and Del against a
// real Server over loopback allocate nothing once warm, also after a
// 4096-key batch. A call reuses a waiter, its response buffer and the
// connection's write buffer, and the connection's one timer is armed for
// the oldest pending deadline, not once per call. AllocsPerRun counts the
// whole process: the client's write, the server connection's read,
// execution and write, and the client's read and handoff.
func TestClientCallZeroAlloc(t *testing.T) {
	_, addr, shutdown := startServer(t, newConcurrentTable(t, 1<<14), nil)
	defer shutdown()
	c := dialClient(t, addr, func(cc *ClientConfig) { cc.Conns = 1 })
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if _, err := c.PutBatch(keys, keys); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Get", func() error {
			if v, ok, err := c.Get(7); err != nil || !ok || v != 7 {
				return fmt.Errorf("got %d, %v, %v", v, ok, err)
			}
			return nil
		}},
		{"Put", func() error { _, err := c.Put(7, 7); return err }},
		{"Del", func() error { _, err := c.Del(1 << 40); return err }},
	} {
		var bad error
		call := func() {
			if err := tc.call(); err != nil {
				bad = err
			}
		}
		for i := 0; i < 8; i++ {
			call() // size the steady-state buffers
		}
		n := testing.AllocsPerRun(200, call)
		if bad != nil {
			t.Fatalf("%s: %v", tc.name, bad)
		}
		if n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, n)
		}
	}
}

// BenchmarkServePathGet is the in-process serve-path benchmark backing the
// perf gate's wire/serve series; with -benchmem it should report 0 B/op.
func BenchmarkServePathGet(b *testing.B) {
	p, keys := newProbeHarness(b)
	f := Frame{Type: OpGet, ID: 1, Payload: appendU64(nil, keys[3])}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Handle(f)
	}
}

// TestSubscriptionStreamZeroAlloc pins allocation-free op-log streaming:
// once a subscribed connection's output buffer is sized, each REPLICATE
// chunk and each keepalive the pump sends allocates nothing: the pump
// encodes every frame into the connection's reused output buffer.
//
// AllocsPerRun counts the whole process, so each measured run also covers
// the write that feeds the chunk, the pump's socket write and this test's
// reads; none of those allocate in steady state either.
func TestSubscriptionStreamZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keepalive time.Duration
		write     bool
	}{
		{"chunk", time.Hour, true},
		{"keepalive", time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := NewReplicated(newConcurrentTable(t, 1<<10), ReplicaConfig{})
			rep.Insert(1, 1)
			_, addr, shutdown := startServer(t, rep, func(c *Config) { c.SubKeepalive = tc.keepalive })
			defer shutdown()

			raw := dialRaw(t, addr)
			raw.send(Frame{Type: OpSub, ID: 3, Payload: AppendSubscribePayload(nil, 0)})
			if f := raw.recv(); !f.IsResponse() || f.Status() != StatusOK {
				t.Fatalf("handshake: %+v", f)
			}
			if _, ents, _ := ParseReplicatePayload(raw.recv().Payload, nil); len(ents) != 1 {
				t.Fatalf("retained entries: %+v, want the one write before subscribing", ents)
			}
			if err := raw.nc.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
			var (
				buf  []byte
				ents []Entry
				v    uint64
				bad  error
			)
			// step feeds one chunk (a single write) or waits out one
			// keepalive, and reads the frame it produces.
			step := func() {
				if tc.write {
					v++
					rep.Insert(1, v)
				}
				var f Frame
				var err error
				f, buf, err = ReadFrame(raw.nc, DefaultMaxPayload, buf)
				if err != nil {
					bad = err
					return
				}
				_, ents, _ = ParseReplicatePayload(f.Payload, ents)
				if f.Type != OpReplicate || (tc.write && (len(ents) != 1 || ents[0].Value != v)) || (!tc.write && len(ents) != 0) {
					bad = fmt.Errorf("frame type %d with entries %+v", f.Type, ents)
				}
			}
			for i := 0; i < 8; i++ {
				step() // size the steady-state buffers
			}
			n := testing.AllocsPerRun(200, step)
			if bad != nil {
				t.Fatal(bad)
			}
			if n != 0 {
				t.Errorf("%v allocs per streamed frame, want 0", n)
			}
		})
	}
}

// TestApplyPushZeroAlloc pins the apply path: pushing or streaming entries
// for keys the replica already tracks allocates nothing. Each one is a
// probe of the per-key index and an update in place; only a new key can
// grow a segment.
func TestApplyPushZeroAlloc(t *testing.T) {
	r := newReplicated(t, 1<<12)
	const keys = 256
	seq := uint64(1)
	for k := uint64(0); k < keys; k++ {
		r.ApplyPush([]Entry{{Seq: seq, Op: OpPut, Key: k, Value: k}}, nil)
		seq++
	}
	push := make([]Entry, 4)
	stream := make([]Entry, 4)
	statuses := make([]byte, len(push))
	// fill gives ents newer entries for tracked keys; op alternates PUT
	// and DEL so tombstones flip both ways.
	fill := func(ents []Entry) {
		for i := range ents {
			op := OpPut
			if seq%2 == 0 {
				op = OpDel
			}
			ents[i] = Entry{Seq: seq, Op: op, Key: seq % keys, Value: seq}
			seq++
		}
	}
	before := r.ReplicaStats()
	if n := testing.AllocsPerRun(200, func() {
		fill(push)
		statuses = r.ApplyPush(push, statuses)
	}); n != 0 {
		t.Errorf("ApplyPush: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		fill(stream)
		r.ApplyStream(stream)
	}); n != 0 {
		t.Errorf("ApplyStream: %v allocs/op, want 0", n)
	}
	after := r.ReplicaStats()
	if applied := after.EntriesApplied - before.EntriesApplied; applied != 2*201*4 || after.EntriesStale != before.EntriesStale {
		t.Fatalf("applied %d entries (%d stale), want every one of %d applied", applied, after.EntriesStale-before.EntriesStale, 2*201*4)
	}
	if after.TrackedKeys != keys {
		t.Fatalf("tracks %d keys, want %d", after.TrackedKeys, keys)
	}
}
