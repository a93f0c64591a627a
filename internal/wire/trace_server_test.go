package wire

import (
	"bytes"
	"errors"
	"testing"

	"mccuckoo/internal/telemetry/trace"
)

// TestServerTracedSpans: a traced PUT and GET yield server_op spans parented
// to the client's context, each with a table_op child carrying the opcode
// (and the kick count for the put).
func TestServerTracedSpans(t *testing.T) {
	rec := trace.New(trace.Options{Sample: 1})
	_, addr, shutdown := startServer(t, newConcurrentTable(t, 4096), func(c *Config) { c.Trace = rec })
	defer shutdown()
	c := dialClient(t, addr, nil)

	tc := trace.Context{TraceID: 0xfeed, SpanID: 31, Hop: 1, Flags: trace.FlagSampled}
	if _, err := sendWait(c, tc, OpPut, appendU64(appendU64(nil, 5), 50)); err != nil {
		t.Fatalf("traced put: %v", err)
	}
	if resp, err := sendWait(c, tc, OpGet, appendU64(nil, 5)); err != nil || !bytes.Equal(resp, appendU64(appendU8(nil, 1), 50)) {
		t.Fatalf("traced get: %x %v", resp, err)
	}
	// An untraced request on the same server records nothing.
	if _, err := c.Put(6, 60); err != nil {
		t.Fatalf("untraced put: %v", err)
	}

	spans := rec.Spans()
	byKind := map[trace.Kind][]trace.Span{}
	for _, sp := range spans {
		if sp.TraceID != tc.TraceID {
			t.Fatalf("span from unexpected trace: %+v", sp)
		}
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
	}
	if len(byKind[trace.KindServerOp]) != 2 || len(byKind[trace.KindTableOp]) != 2 {
		t.Fatalf("got %d server_op and %d table_op spans, want 2+2 (all: %+v)",
			len(byKind[trace.KindServerOp]), len(byKind[trace.KindTableOp]), spans)
	}
	for _, sp := range byKind[trace.KindServerOp] {
		if sp.Parent != tc.SpanID {
			t.Errorf("server_op parent %d, want the wire context's span id %d", sp.Parent, tc.SpanID)
		}
		if sp.Hop != tc.Hop {
			t.Errorf("server_op hop %d, want %d", sp.Hop, tc.Hop)
		}
		if sp.Op != OpPut && sp.Op != OpGet {
			t.Errorf("server_op op %d, want put or get", sp.Op)
		}
	}
	srvByOp := map[uint8]trace.Span{}
	for _, sp := range byKind[trace.KindServerOp] {
		srvByOp[sp.Op] = sp
	}
	for _, sp := range byKind[trace.KindTableOp] {
		parent, ok := srvByOp[sp.Op]
		if !ok || sp.Parent != parent.SpanID {
			t.Errorf("table_op (op %d) parent %d not the matching server_op span", sp.Op, sp.Parent)
		}
		if sp.Key == 0 {
			t.Errorf("table_op missing key hash: %+v", sp)
		}
	}
}

// TestServerPanicFlightRecorded: a recovered request-handler panic lands in
// the flight recorder with the opcode even though the request was untraced,
// alongside the existing panics counter.
func TestServerPanicFlightRecorded(t *testing.T) {
	rec := trace.New(trace.Options{Sample: 1 << 30}) // sampler never fires
	store := &panicStore{BatchStore: newConcurrentTable(t, 1024)}
	srv, addr, shutdown := startServer(t, store, func(c *Config) { c.Trace = rec })
	defer shutdown()
	c := dialClient(t, addr, nil)

	var srvErr *ServerError
	if _, _, err := c.Get(666); err == nil || !errors.As(err, &srvErr) {
		t.Fatalf("panic request: %v, want ServerError", err)
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", srv.panics.Load())
	}
	var panics []trace.Span
	for _, sp := range rec.Spans() {
		if sp.Kind == trace.KindPanic {
			panics = append(panics, sp)
		}
	}
	if len(panics) != 1 {
		t.Fatalf("flight recorder holds %d panic spans, want 1: %+v", len(panics), rec.Spans())
	}
	if panics[0].Op != OpGet {
		t.Fatalf("panic span op %d, want OpGet", panics[0].Op)
	}
}
