package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestContextRoundTrip(t *testing.T) {
	cases := []Context{
		{TraceID: 1},
		{TraceID: 0xdeadbeefcafef00d, SpanID: 0x12345678, Hop: 3, Flags: FlagSampled},
		{TraceID: ^uint64(0), SpanID: ^uint32(0), Hop: 255, Flags: 0xff}, // unknown flag bits survive
	}
	for _, tc := range cases {
		b := AppendContext(nil, tc)
		if len(b) != ContextSize {
			t.Fatalf("AppendContext(%+v): %d bytes, want %d", tc, len(b), ContextSize)
		}
		got, ok := ParseContext(b)
		if !ok || got != tc {
			t.Fatalf("round trip %+v: got %+v ok=%v", tc, got, ok)
		}
		// Re-encode is byte-identical (the wire fuzzer leans on this).
		if string(AppendContext(nil, got)) != string(b) {
			t.Fatalf("re-encode of %+v not byte-identical", tc)
		}
	}
}

func TestParseContextRejects(t *testing.T) {
	valid := AppendContext(nil, Context{TraceID: 42, SpanID: 7, Hop: 1, Flags: FlagSampled})
	for name, b := range map[string][]byte{
		"short":         valid[:ContextSize-1],
		"empty":         nil,
		"zero trace id": AppendContext(nil, Context{}),
		"reserved 14":   append(append([]byte(nil), valid[:14]...), 1, 0),
		"reserved 15":   append(append([]byte(nil), valid[:15]...), 1),
	} {
		if _, ok := ParseContext(b); ok {
			t.Errorf("%s: accepted, want reject", name)
		}
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	tc := r.Begin()
	if tc.Valid() {
		t.Fatalf("nil Begin returned valid context %+v", tc)
	}
	sp := r.Start(tc, KindClientOp)
	child := sp.StartChild(KindTableOp)
	child.Finish()
	sp.Finish()
	fp := r.StartForced(tc, KindPanic)
	fp.FinishForced()
	if got := r.Spans(); got != nil {
		t.Fatalf("nil Spans() = %v, want nil", got)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplingAndSpanRecording(t *testing.T) {
	r := New(Options{Sample: 4})
	sampled := 0
	for i := 0; i < 40; i++ {
		tc := r.Begin()
		if tc.Valid() {
			if !tc.Sampled() {
				t.Fatal("Begin returned a valid but unsampled context")
			}
			sampled++
			sp := r.Start(tc, KindClientOp)
			sp.Op = 2
			sp.Key = 0x1234
			child := sp.StartChild(KindTableOp)
			child.Kicks = 3
			child.Finish()
			sp.Finish()
		} else if sp := r.Start(tc, KindClientOp); sp.rec != nil {
			t.Fatal("unsampled Start returned a live span with slow capture off")
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 at 1-in-4, want 10", sampled)
	}
	spans := r.Spans()
	if len(spans) != 2*sampled {
		t.Fatalf("recorded %d spans, want %d", len(spans), 2*sampled)
	}
	// Children link to their parents within each trace.
	byTrace := map[uint64][]Span{}
	for _, sp := range spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	if len(byTrace) != sampled {
		t.Fatalf("%d distinct traces, want %d", len(byTrace), sampled)
	}
	for id, ss := range byTrace {
		if len(ss) != 2 {
			t.Fatalf("trace %x has %d spans, want 2", id, len(ss))
		}
		var root, child Span
		for _, sp := range ss {
			if sp.Kind == KindClientOp {
				root = sp
			} else {
				child = sp
			}
		}
		if child.Parent != root.SpanID {
			t.Fatalf("trace %x: child parent %d, root span %d", id, child.Parent, root.SpanID)
		}
		if child.Kicks != 3 || root.Key != 0x1234 || root.Op != 2 {
			t.Fatalf("trace %x: cargo lost: root=%+v child=%+v", id, root, child)
		}
	}
}

func TestSlowCaptureWithoutSampling(t *testing.T) {
	r := New(Options{Sample: 1 << 30, SlowNanos: int64(2 * time.Millisecond)})
	// Fast untraced op: dropped.
	sp := r.Start(Context{}, KindServerOp)
	sp.Finish()
	if got := r.Spans(); len(got) != 0 {
		t.Fatalf("fast unsampled span recorded: %v", got)
	}
	// Slow untraced op: captured despite no trace id.
	sp = r.Start(Context{}, KindServerOp)
	time.Sleep(4 * time.Millisecond)
	sp.Finish()
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("slow span not captured: %v", spans)
	}
	if spans[0].TraceID != 0 || spans[0].Dur < int64(2*time.Millisecond) {
		t.Fatalf("slow span fields wrong: %+v", spans[0])
	}
	// Slow-captured spans must not leak a context downstream.
	if c := spans[0].SpanID; c == 0 {
		t.Fatal("slow span has no span id")
	}
	live := r.Start(Context{}, KindServerOp)
	if live.Context().Valid() {
		t.Fatal("untraced slow-armed span leaked a valid downstream context")
	}
	live.Finish()
}

func TestForcedSpanAlwaysRecords(t *testing.T) {
	r := New(Options{Sample: 1 << 30}) // sampler will never pick
	sp := r.StartForced(Context{}, KindPanic)
	sp.Op = 9
	sp.FinishForced()
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Kind != KindPanic || spans[0].Op != 9 {
		t.Fatalf("forced span missing: %v", spans)
	}
}

func TestRingWrap(t *testing.T) {
	r := New(Options{Sample: 1})
	const n = spanRing + 84
	for i := 0; i < n; i++ {
		tc := r.Begin()
		sp := r.Start(tc, KindTableOp)
		sp.Kicks = int32(i)
		sp.Finish()
	}
	spans := r.Spans()
	if len(spans) != spanRing || r.Cap() != spanRing {
		t.Fatalf("ring holds %d spans with capacity %d, want %d", len(spans), r.Cap(), spanRing)
	}
	for i, sp := range spans {
		if want := int32(n - spanRing + i); sp.Kicks != want {
			t.Fatalf("span %d kicks=%d, want %d (oldest-first order)", i, sp.Kicks, want)
		}
	}
}

func TestHandlerFilters(t *testing.T) {
	r := New(Options{Sample: 1})
	tcA := r.Begin()
	spA := r.Start(tcA, KindClientOp)
	spA.Finish()
	tcB := r.Begin()
	spB := r.Start(tcB, KindClientOp)
	time.Sleep(2 * time.Millisecond)
	spB.Finish()

	get := func(url string) []spanJSON {
		t.Helper()
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body)
		}
		var out []spanJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
		return out
	}

	if got := get("/debug/mccuckoo/trace"); len(got) != 2 {
		t.Fatalf("unfiltered: %d spans, want 2", len(got))
	}
	wantID := strings.Repeat("0", 16)
	if byID := get("/debug/mccuckoo/trace?trace=" + toJSON(Span{TraceID: tcA.TraceID}).TraceID); len(byID) != 1 || byID[0].TraceID == wantID {
		t.Fatalf("trace filter: %+v", byID)
	}
	if slow := get("/debug/mccuckoo/trace?minns=1000000"); len(slow) != 1 || slow[0].DurNS < 1e6 {
		t.Fatalf("minns filter: %+v", slow)
	}
	if lim := get("/debug/mccuckoo/trace?limit=1"); len(lim) != 1 {
		t.Fatalf("limit filter: %+v", lim)
	}
	// Bad parameters are 400s, not panics.
	for _, bad := range []string{"?trace=zz", "?minns=x", "?limit=-1"} {
		req := httptest.NewRequest("GET", "/debug/mccuckoo/trace"+bad, nil)
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mccuckoo_trace_begun_total 2", "mccuckoo_trace_spans_total 2"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("WritePrometheus missing %q in:\n%s", want, sb.String())
		}
	}
}

func TestTrees(t *testing.T) {
	r := New(Options{Sample: 1})
	tc := r.Begin()
	root := r.Start(tc, KindClientOp)
	rtt := root.StartChild(KindReplicaRTT)
	// Simulate the remote hop: its context crosses the wire.
	remote := r.Start(rtt.Context(), KindServerOp)
	table := remote.StartChild(KindTableOp)
	table.Finish()
	remote.Finish()
	rtt.Finish()
	root.Finish()
	// A second, unrelated trace.
	tc2 := r.Begin()
	lone := r.Start(tc2, KindClientOp)
	lone.Finish()

	trees := Trees(r.Spans())
	if len(trees) != 2 {
		t.Fatalf("%d roots, want 2", len(trees))
	}
	var big *Node
	for _, n := range trees {
		if n.Span.TraceID == tc.TraceID {
			big = n
		}
	}
	if big == nil || big.Span.Kind != KindClientOp {
		t.Fatalf("main trace root missing: %+v", trees)
	}
	if len(big.Children) != 1 || big.Children[0].Span.Kind != KindReplicaRTT {
		t.Fatalf("rtt child missing: %+v", big.Children)
	}
	srv := big.Children[0].Children
	if len(srv) != 1 || srv[0].Span.Kind != KindServerOp || srv[0].Span.Hop != 1 {
		t.Fatalf("server grandchild wrong: %+v", srv)
	}
	if len(srv[0].Children) != 1 || srv[0].Children[0].Span.Kind != KindTableOp {
		t.Fatalf("table great-grandchild wrong: %+v", srv[0].Children)
	}
	var sb strings.Builder
	if err := big.Write(&sb, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"client_op", "  replica_rtt", "    server_op", "      table_op", "trace="} {
		if !strings.Contains(out, want) {
			t.Errorf("tree render missing %q in:\n%s", want, out)
		}
	}
}

func TestOpString(t *testing.T) {
	RegisterOpNames(nil) // ignored
	if got := OpString(0); got != "" {
		t.Fatalf("OpString(0) = %q, want empty", got)
	}
	RegisterOpNames(func(op byte) string { return "x" + string('0'+op) })
	defer RegisterOpNames(func(op byte) string { return "op" }) // leave something sane behind
	if got := OpString(3); got != "x3" {
		t.Fatalf("OpString(3) = %q", got)
	}
}

// TestUntracedPathZeroAlloc proves the tracing-compiled-in-but-disabled hot
// path allocates nothing: both the nil-recorder shape mcserved runs without
// -trace, and the enabled-but-unsampled shape a non-sampled request takes.
func TestUntracedPathZeroAlloc(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(200, func() {
		tc := nilRec.Begin()
		sp := nilRec.Start(tc, KindClientOp)
		child := sp.StartChild(KindTableOp)
		_ = child.Context()
		child.Finish()
		sp.Finish()
	}); n != 0 {
		t.Fatalf("nil-recorder path allocates %v per op, want 0", n)
	}

	r := New(Options{Sample: 1 << 30}) // sampler never fires, slow off
	if n := testing.AllocsPerRun(200, func() {
		tc := r.Begin()
		sp := r.Start(tc, KindClientOp)
		child := sp.StartChild(KindTableOp)
		_ = child.Context()
		child.Finish()
		sp.Finish()
	}); n != 0 {
		t.Fatalf("enabled-unsampled path allocates %v per op, want 0", n)
	}

	// Even the recording path itself is allocation-free (ring slots are
	// preallocated); only Spans()/Handler() allocate, off the hot path.
	rs := New(Options{Sample: 1})
	if n := testing.AllocsPerRun(200, func() {
		tc := rs.Begin()
		sp := rs.Start(tc, KindClientOp)
		sp.Finish()
	}); n != 0 {
		t.Fatalf("sampled record path allocates %v per op, want 0", n)
	}
}
