package wire

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"mccuckoo/internal/telemetry/trace"
)

// recordingServer is a scripted peer over net.Pipe: it records every request
// frame it reads (normalized to ID 0, since the client's request counter
// advances between calls) and replies with a minimal well-formed OK response
// for each op, so the client-side decoders succeed.
type recordingServer struct {
	mu     sync.Mutex
	frames [][]byte
}

func (rs *recordingServer) record(f Frame) {
	norm := AppendFrame(nil, Frame{Type: f.Type, ID: 0, Payload: f.Payload, Trace: f.Trace})
	rs.mu.Lock()
	rs.frames = append(rs.frames, norm)
	rs.mu.Unlock()
}

func (rs *recordingServer) recorded() [][]byte {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([][]byte(nil), rs.frames...)
}

// serve runs the scripted responder loop until the pipe closes.
func (rs *recordingServer) serve(nc net.Conn) {
	defer nc.Close()
	var buf []byte
	for {
		f, b, err := ReadFrame(nc, DefaultMaxPayload, buf)
		if err != nil {
			return
		}
		buf = b
		rs.record(f)
		var p []byte
		switch f.Type {
		case OpPing:
		case OpGet:
			p = appendU64(appendU8(nil, 1), 99)
		case OpPut:
			p = appendU32(appendU8(nil, 0), 0)
		case OpDel:
			p = appendU8(nil, 1)
		case OpVGet:
			p = appendU64(appendU64(appendU8(nil, VStateLive), 7), 9)
		case OpReplicate:
			_, ents, ok := ParseReplicatePayload(f.Payload, nil)
			if !ok {
				p = nil
			} else {
				p = appendU32(nil, uint32(len(ents)))
				for range ents {
					p = appendU8(p, ApplyApplied)
				}
			}
		case OpDigest:
			p = AppendDigestResponse(nil, 0, 0, nil)
		}
		resp := AppendFrame(nil, Frame{Type: respFlag | StatusOK, ID: f.ID, Payload: p})
		if _, err := nc.Write(resp); err != nil {
			return
		}
	}
}

// newRecordingClient dials a Client whose single connection is a net.Pipe
// served by the scripted recorder.
func newRecordingClient(t *testing.T) (*Client, *recordingServer) {
	t.Helper()
	rs := &recordingServer{}
	cli, err := Dial(ClientConfig{
		Addr:  "pipe",
		Conns: 1,
		Dial: func(string, time.Duration) (net.Conn, error) {
			cNC, sNC := net.Pipe()
			go rs.serve(sNC)
			return cNC, nil
		},
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli, rs
}

// TestCtxDelegatesPinIdenticalFrames pins the one-method-per-request
// surface. Every request sent with the zero trace context (Get, Put and Del
// take none) puts on the wire exactly the untraced frame AppendFrame builds
// for its op and payload: no traced flag, no context prefix. The same
// request with a valid context, through its method or through Send, adds
// the traced flag and the context prefix and nothing else.
func TestCtxDelegatesPinIdenticalFrames(t *testing.T) {
	cli, rs := newRecordingClient(t)
	ents := []Entry{{Seq: 3, Op: OpPut, Key: 11, Value: 22}}
	tc := trace.Context{TraceID: 0xfeed, SpanID: 7, Flags: trace.FlagSampled}
	sent := func(tc trace.Context, op byte, payload []byte) error {
		_, err := sendWait(cli, tc, op, payload)
		return err
	}
	for _, r := range []struct {
		name    string
		op      byte
		payload []byte
		call    func(tc trace.Context) error
	}{
		{"Get", OpGet, appendU64(nil, 5), func(trace.Context) error { _, _, err := cli.Get(5); return err }},
		{"Put", OpPut, appendU64(appendU64(nil, 5), 6), func(trace.Context) error { _, err := cli.Put(5, 6); return err }},
		{"Del", OpDel, appendU64(nil, 5), func(trace.Context) error { _, err := cli.Del(5); return err }},
		{"VGet", OpVGet, AppendVGetRequest(nil, 5),
			func(tc trace.Context) error { _, _, _, err := cli.VGet(tc, 5); return err }},
		{"Replicate", OpReplicate, AppendReplicatePayload(nil, 3, ents),
			func(tc trace.Context) error { _, err := cli.Replicate(tc, 3, ents); return err }},
		{"DigestRange", OpDigest, AppendDigestRequest(nil, 1, 100, 8, "peer"),
			func(tc trace.Context) error { _, _, _, err := cli.DigestRange(tc, "peer", 1, 100, 8); return err }},
	} {
		untraced := AppendFrame(nil, Frame{Type: r.op, Payload: r.payload})
		traced := AppendFrame(nil, Frame{Type: r.op, Payload: r.payload, Trace: tc})
		if traced[3]&flagTraced == 0 || len(traced) != len(untraced)+trace.ContextSize {
			t.Fatalf("%s: traced frame %x lacks the traced flag or the context prefix", r.name, traced)
		}
		calls := []struct {
			how  string
			send func() error
			want []byte
		}{
			{"zero context", func() error { return r.call(trace.Context{}) }, untraced},
			{"Send, zero context", func() error { return sent(trace.Context{}, r.op, r.payload) }, untraced},
			{"Send, valid context", func() error { return sent(tc, r.op, r.payload) }, traced},
		}
		if r.op != OpGet && r.op != OpPut && r.op != OpDel {
			calls = append(calls, struct {
				how  string
				send func() error
				want []byte
			}{"valid context", func() error { return r.call(tc) }, traced})
		}
		for _, c := range calls {
			before := len(rs.recorded())
			if err := c.send(); err != nil {
				t.Fatalf("%s, %s: %v", r.name, c.how, err)
			}
			got := rs.recorded()
			if len(got) != before+1 {
				t.Fatalf("%s, %s: recorded %d frames, want 1", r.name, c.how, len(got)-before)
			}
			if !bytes.Equal(got[before], c.want) {
				t.Errorf("%s, %s: request frame\n got: %x\nwant: %x", r.name, c.how, got[before], c.want)
			}
		}
	}
}
