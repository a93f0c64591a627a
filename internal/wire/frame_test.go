package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mccuckoo/internal/telemetry/trace"
)

func TestTracedFrameRoundTrip(t *testing.T) {
	tc := trace.Context{TraceID: 0x1122334455667788, SpanID: 99, Hop: 2, Flags: trace.FlagSampled}
	payload := []byte("key-bytes")
	b := AppendFrame(nil, Frame{Type: OpPut, ID: 41, Payload: payload, Trace: tc})
	if want := FrameOverhead + trace.ContextSize + len(payload); len(b) != want {
		t.Fatalf("traced frame is %d bytes, want %d", len(b), want)
	}
	if b[3] != OpPut|flagTraced {
		t.Fatalf("type byte %#02x, want flag set", b[3])
	}
	fr, n, err := DecodeFrame(b, DefaultMaxPayload)
	if err != nil || n != len(b) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if fr.Type != OpPut || fr.Trace != tc || !bytes.Equal(fr.Payload, payload) {
		t.Fatalf("decoded %+v", fr)
	}
	if re := AppendFrame(nil, fr); !bytes.Equal(re, b) {
		t.Fatal("re-encode of traced frame not byte-identical")
	}
	fr2, _, err := ReadFrame(bytes.NewReader(b), DefaultMaxPayload, nil)
	if err != nil || fr2.Type != OpPut || fr2.Trace != tc || !bytes.Equal(fr2.Payload, payload) {
		t.Fatalf("ReadFrame: %+v err=%v", fr2, err)
	}

	// A context on a response frame must encode nothing: responses are
	// never traced and stay byte-identical to the untraced encoding.
	resp := AppendFrame(nil, Frame{Type: respFlag | StatusOK, ID: 41, Payload: payload, Trace: tc})
	plain := AppendFrame(nil, Frame{Type: respFlag | StatusOK, ID: 41, Payload: payload})
	if !bytes.Equal(resp, plain) {
		t.Fatal("response frame encoding changed by a trace context")
	}

	// An untraced request stays byte-identical to the pre-tracing protocol.
	if got, want := AppendFrame(nil, Frame{Type: OpPut, ID: 41, Payload: payload}),
		AppendFrame(nil, Frame{Type: OpPut, ID: 41, Payload: payload, Trace: trace.Context{}}); !bytes.Equal(got, want) {
		t.Fatal("zero trace context changed the encoding")
	}
}

func TestTracedFrameRejections(t *testing.T) {
	var protoErr *ProtocolError
	cases := map[string][]byte{
		"flag with short payload": AppendFrame(nil, Frame{Type: OpGet | flagTraced, ID: 1, Payload: []byte{1, 2, 3}}),
		"flag with empty payload": AppendFrame(nil, Frame{Type: OpGet | flagTraced, ID: 2}),
		"flag on response": AppendFrame(nil, Frame{Type: respFlag | StatusOK | flagTraced, ID: 3,
			Payload: trace.AppendContext(nil, trace.Context{TraceID: 9})}),
		"zero trace id": AppendFrame(nil, Frame{Type: OpGet | flagTraced, ID: 4,
			Payload: make([]byte, trace.ContextSize)}),
	}
	bad := trace.AppendContext(nil, trace.Context{TraceID: 9})
	bad[15] = 7
	cases["nonzero reserved byte"] = AppendFrame(nil, Frame{Type: OpGet | flagTraced, ID: 5, Payload: bad})
	for name, b := range cases {
		if _, _, err := DecodeFrame(b, DefaultMaxPayload); err == nil || !errors.As(err, &protoErr) {
			t.Errorf("%s: err=%v, want ProtocolError", name, err)
		}
		if _, _, err := ReadFrame(bytes.NewReader(b), DefaultMaxPayload, nil); err == nil || !errors.As(err, &protoErr) {
			t.Errorf("%s (reader): err=%v, want ProtocolError", name, err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: OpPing, ID: 0},
		{Type: OpGet, ID: 1, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: respFlag | StatusOK, ID: 1 << 60, Payload: bytes.Repeat([]byte{0xab}, 4096)},
		{Type: respFlag | StatusErr, ID: ^uint64(0)},
		{Type: OpVGet, ID: 2, Payload: bytes.Repeat([]byte{9}, 8)},
		{Type: OpSub, ID: 3, Payload: AppendSubscribePayload(nil, 12345)},
		{Type: OpReplicate, ID: 4, Payload: AppendReplicatePayload(nil, 77, []Entry{
			{Seq: 77, Op: OpPut, Key: 5, Value: 50},
			{Seq: 76, Op: OpDel, Key: 6},
		})},
		{Type: OpDigest, ID: 5, Payload: AppendDigestRequest(nil, 0, ^uint64(0), 128, "node-a:7000")},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}

	// Decode back out of the concatenated stream.
	rest := stream
	for i, want := range frames {
		got, n, err := DecodeFrame(rest, DefaultMaxPayload)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if n != FrameOverhead+len(want.Payload) {
			t.Fatalf("frame %d: consumed %d bytes, want %d", i, n, FrameOverhead+len(want.Payload))
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: round trip mismatch: %+v", i, got)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}

	// Same stream through the io.Reader path with buffer reuse.
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range frames {
		var got Frame
		var err error
		got, buf, err = ReadFrame(r, DefaultMaxPayload, buf)
		if err != nil {
			t.Fatalf("frame %d: ReadFrame: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: ReadFrame mismatch: %+v", i, got)
		}
	}
	if _, _, err := ReadFrame(r, DefaultMaxPayload, buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good := AppendFrame(nil, Frame{Type: OpGet, ID: 7, Payload: []byte{9, 9, 9}})

	var protoErr *ProtocolError
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		max     int
		isProto bool
	}{
		{"empty", func(b []byte) []byte { return nil }, DefaultMaxPayload, false},
		{"short header", func(b []byte) []byte { return b[:10] }, DefaultMaxPayload, false},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, DefaultMaxPayload, false},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, DefaultMaxPayload, true},
		{"bad version", func(b []byte) []byte { b[2] = 99; return b }, DefaultMaxPayload, true},
		{"oversized", func(b []byte) []byte { return b }, 2, true},
		{"corrupt payload", func(b []byte) []byte { b[headerLen] ^= 0xff; return b }, DefaultMaxPayload, true},
		{"corrupt crc", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, DefaultMaxPayload, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			_, _, err := DecodeFrame(b, tc.max)
			if err == nil {
				t.Fatal("decode accepted corrupt input")
			}
			if got := errors.As(err, &protoErr); got != tc.isProto {
				t.Fatalf("error %v: ProtocolError=%v, want %v", err, got, tc.isProto)
			}
			// The reader path must agree with the slice path.
			_, _, rerr := ReadFrame(bytes.NewReader(b), tc.max, nil)
			if rerr == nil {
				t.Fatal("ReadFrame accepted corrupt input")
			}
		})
	}
}

// FuzzWireFrame feeds arbitrary bytes to the decoder: it must never panic,
// and any input it accepts must re-encode byte-identically and decode back
// to an equal frame.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MW"))
	f.Add(AppendFrame(nil, Frame{Type: OpPing, ID: 0}))
	f.Add(AppendFrame(nil, Frame{Type: OpPut, ID: 42, Payload: bytes.Repeat([]byte{7}, 16)}))
	f.Add(AppendFrame(nil, Frame{Type: respFlag | StatusErr, ID: 1, Payload: []byte("boom")}))
	f.Add(AppendFrame(nil, Frame{Type: OpVGet, ID: 5, Payload: bytes.Repeat([]byte{3}, 8)}))
	f.Add(AppendFrame(nil, Frame{Type: OpSub, ID: 6, Payload: AppendSubscribePayload(nil, 99)}))
	f.Add(AppendFrame(nil, Frame{Type: OpReplicate, ID: 7, Payload: AppendReplicatePayload(nil, 4, []Entry{
		{Seq: 4, Op: OpPut, Key: 1, Value: 2},
		{Seq: 3, Op: OpDel, Key: 9},
	})}))
	f.Add(AppendFrame(nil, Frame{Type: OpDigest, ID: 8, Payload: AppendDigestRequest(nil, 10, 20, 64, "n1")}))
	corrupt := AppendFrame(nil, Frame{Type: OpGet, ID: 3, Payload: []byte{1, 2, 3}})
	corrupt[len(corrupt)-2] ^= 0x40
	f.Add(corrupt)
	// Traced frames: a valid one, plus encodings only a broken encoder
	// could emit — flag with a short payload, flag on a response, nonzero
	// reserved prefix bytes — which must be rejected, never panic.
	f.Add(AppendFrame(nil, Frame{Type: OpPut, ID: 9, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Trace: trace.Context{TraceID: 0xabcdef, SpanID: 77, Hop: 1, Flags: trace.FlagSampled}}))
	shortTraced := AppendFrame(nil, Frame{Type: OpPing | flagTraced, ID: 10, Payload: []byte{1, 2, 3}})
	f.Add(shortTraced)
	f.Add(AppendFrame(nil, Frame{Type: respFlag | StatusOK | flagTraced, ID: 11,
		Payload: trace.AppendContext(nil, trace.Context{TraceID: 5, Flags: trace.FlagSampled})}))
	badReserved := trace.AppendContext(nil, trace.Context{TraceID: 5})
	badReserved[14] = 1
	f.Add(AppendFrame(nil, Frame{Type: OpGet | flagTraced, ID: 12, Payload: badReserved}))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b, DefaultMaxPayload)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v but consumed %d bytes", err, n)
			}
			return
		}
		if n < FrameOverhead || n > len(b) {
			t.Fatalf("consumed %d bytes of %d", n, len(b))
		}
		re := AppendFrame(nil, fr)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode differs from accepted input")
		}
		fr2, n2, err := DecodeFrame(re, DefaultMaxPayload)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-decode: n=%d err=%v", n2, err)
		}
		if fr2.Type != fr.Type || fr2.ID != fr.ID || !bytes.Equal(fr2.Payload, fr.Payload) || fr2.Trace != fr.Trace {
			t.Fatalf("round trip mismatch: %+v vs %+v", fr, fr2)
		}
		// The streaming reader must accept exactly the same frame.
		fr3, _, err := ReadFrame(bytes.NewReader(b), DefaultMaxPayload, nil)
		if err != nil {
			t.Fatalf("ReadFrame rejected what DecodeFrame accepted: %v", err)
		}
		if fr3.Type != fr.Type || fr3.ID != fr.ID || !bytes.Equal(fr3.Payload, fr.Payload) || fr3.Trace != fr.Trace {
			t.Fatalf("ReadFrame/DecodeFrame disagree")
		}
	})
}
