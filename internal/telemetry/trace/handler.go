package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"mccuckoo/internal/telemetry"
)

// opNamer decodes wire opcodes into names for the JSON dump and span trees.
// The wire package registers its OpName at init; trace cannot import wire
// (wire imports trace), so the function arrives through this seam.
var opNamer atomic.Pointer[func(byte) string]

// RegisterOpNames installs the opcode-to-name function used when rendering
// spans. Later registrations win; nil is ignored.
func RegisterOpNames(f func(byte) string) {
	if f == nil {
		return
	}
	opNamer.Store(&f)
}

// OpString renders a span's opcode with the registered namer, falling back
// to the numeric form.
func OpString(op uint8) string {
	if op == 0 {
		return ""
	}
	if f := opNamer.Load(); f != nil {
		return (*f)(op)
	}
	return "op_" + strconv.Itoa(int(op))
}

// spanJSON is the /debug/mccuckoo/trace element shape.
type spanJSON struct {
	TraceID string `json:"trace_id"`
	SpanID  uint32 `json:"span_id"`
	Parent  uint32 `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Op      string `json:"op,omitempty"`
	Hop     uint8  `json:"hop"`
	Sampled bool   `json:"sampled"`
	StartNS int64  `json:"start_unix_ns"`
	DurNS   int64  `json:"dur_ns"`
	WaitNS  int64  `json:"wait_ns,omitempty"`
	Kicks   int32  `json:"kicks,omitempty"`
	Peer    string `json:"peer,omitempty"`
	KeyHash string `json:"key_hash,omitempty"`
}

func toJSON(sp Span) spanJSON {
	j := spanJSON{
		TraceID: fmt.Sprintf("%016x", sp.TraceID),
		SpanID:  sp.SpanID,
		Parent:  sp.Parent,
		Kind:    sp.Kind.String(),
		Op:      OpString(sp.Op),
		Hop:     sp.Hop,
		Sampled: sp.Flags&FlagSampled != 0,
		StartNS: sp.Start,
		DurNS:   sp.Dur,
		WaitNS:  sp.Wait,
		Kicks:   sp.Kicks,
	}
	if sp.Peer != 0 {
		j.Peer = fmt.Sprintf("%08x", sp.Peer)
	}
	if sp.Key != 0 {
		j.KeyHash = fmt.Sprintf("%016x", sp.Key)
	}
	return j
}

// Handler serves the flight-recorder contents as a JSON span array at any
// path it is mounted on (mcserved mounts it at /debug/mccuckoo/trace).
// Query parameters:
//
//	trace=<16-hex>   only spans of that trace id
//	minns=<int>      only spans at least that many nanoseconds long
//	limit=<int>      at most that many spans (newest kept)
//
// A nil recorder serves an empty array, so the endpoint can be mounted
// unconditionally.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var (
			traceID uint64
			minNS   int64
			limit   int
			err     error
		)
		q := req.URL.Query()
		if v := q.Get("trace"); v != "" {
			if traceID, err = strconv.ParseUint(v, 16, 64); err != nil {
				http.Error(w, "trace: want hex trace id", http.StatusBadRequest)
				return
			}
		}
		if v := q.Get("minns"); v != "" {
			if minNS, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "minns: want integer nanoseconds", http.StatusBadRequest)
				return
			}
		}
		if v := q.Get("limit"); v != "" {
			if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
				http.Error(w, "limit: want non-negative integer", http.StatusBadRequest)
				return
			}
		}
		spans := r.Spans()
		out := make([]spanJSON, 0, len(spans))
		for _, sp := range spans {
			if traceID != 0 && sp.TraceID != traceID {
				continue
			}
			if sp.Dur < minNS {
				continue
			}
			out = append(out, toJSON(sp))
		}
		if limit > 0 && len(out) > limit {
			out = out[len(out)-limit:]
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// WritePrometheus emits the recorder's own counters in Prometheus text
// exposition format. Nil-safe.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	p := telemetry.NewPromWriter(w)
	p.Simple("mccuckoo_trace_begun_total", "Traces begun (before head sampling).", "counter", int64(r.traces.Load()))
	p.Simple("mccuckoo_trace_sampled_total", "Traces chosen by head sampling.", "counter", int64(r.sampled.Load()))
	p.Simple("mccuckoo_trace_spans_total", "Spans recorded to the flight recorder.", "counter", r.spans.Load())
	p.Simple("mccuckoo_trace_slow_spans_total", "Spans recorded only because they cleared the slow threshold.", "counter", r.slowRec.Load())
	p.Simple("mccuckoo_trace_forced_spans_total", "Spans recorded unconditionally (panic path).", "counter", r.forced.Load())
	return p.Err()
}

// Node is one span plus its children in a reassembled trace tree.
type Node struct {
	Span     Span
	Children []*Node
}

// Trees reassembles spans into per-trace trees: spans whose parent is
// missing from the set (including true roots) become tree roots. Within a
// level, children sort by start time; roots sort by trace id then start.
// Spans from several traces may be passed together — each trace yields its
// own root set.
func Trees(spans []Span) []*Node {
	type key struct {
		trace uint64
		span  uint32
	}
	nodes := make(map[key]*Node, len(spans))
	for _, sp := range spans {
		if sp.TraceID == 0 {
			continue
		}
		nodes[key{sp.TraceID, sp.SpanID}] = &Node{Span: sp}
	}
	var roots []*Node
	for _, sp := range spans {
		if sp.TraceID == 0 {
			continue
		}
		n := nodes[key{sp.TraceID, sp.SpanID}]
		if p, ok := nodes[key{sp.TraceID, sp.Parent}]; ok && sp.Parent != 0 && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortKids func(n *Node)
	sortKids = func(n *Node) {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Span.Start < n.Children[j].Span.Start
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	for _, n := range roots {
		sortKids(n)
	}
	sort.Slice(roots, func(i, j int) bool {
		a, b := roots[i].Span, roots[j].Span
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		return a.Start < b.Start
	})
	return roots
}

// Write renders the tree in an indented human form (mctrace's slowest-N
// output):
//
//	client_op put 412µs trace=9f3a… key=ab12…
//	  replica_rtt replicate 397µs peer=1a2b3c4d
//	    server_op replicate 121µs hop=1
//	      repl_apply replicate 96µs kicks=1
func (n *Node) Write(w io.Writer, indent int) error {
	sp := n.Span
	line := fmt.Sprintf("%*s%s", indent*2, "", sp.Kind.String())
	if op := OpString(sp.Op); op != "" {
		line += " " + op
	}
	line += fmt.Sprintf(" %.3gµs", float64(sp.Dur)/1e3)
	if indent == 0 {
		line += fmt.Sprintf(" trace=%016x", sp.TraceID)
	}
	if sp.Hop != 0 {
		line += fmt.Sprintf(" hop=%d", sp.Hop)
	}
	if sp.Wait != 0 {
		line += fmt.Sprintf(" wait=%d", sp.Wait)
	}
	if sp.Kicks != 0 {
		line += fmt.Sprintf(" kicks=%d", sp.Kicks)
	}
	if sp.Peer != 0 {
		line += fmt.Sprintf(" peer=%08x", sp.Peer)
	}
	if sp.Key != 0 {
		line += fmt.Sprintf(" key=%016x", sp.Key)
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := c.Write(w, indent+1); err != nil {
			return err
		}
	}
	return nil
}
