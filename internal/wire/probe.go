package wire

import (
	"mccuckoo"
	"mccuckoo/internal/keep"
)

// ServeProbe drives one connection's serve path in-process, bypassing the
// network: each Handle call executes a decoded request frame exactly as a
// served connection would, appending the response to the connection's
// output buffer, then empties the buffer as a write does. It exists so the
// perf gate's wire series and the zero-allocation assertions measure the
// serve path itself, not loopback TCP.
//
// A ServeProbe is not safe for concurrent use — like a served connection,
// it is single-threaded by construction.
type ServeProbe struct {
	h *connHandler
}

// NewServeProbe returns a probe serving store with default server
// configuration. The backing Server is never started; only the request
// execution path is exercised.
func NewServeProbe(store mccuckoo.BatchStore) (*ServeProbe, error) {
	srv, err := NewServer(Config{Store: store})
	if err != nil {
		return nil, err
	}
	return &ServeProbe{h: &connHandler{srv: srv}}, nil
}

// Handle executes one request frame into the output buffer and returns the
// response status, then empties the buffer under the keep rule the way a
// connection does once the bytes are on the wire.
func (p *ServeProbe) Handle(f Frame) byte {
	status := p.h.handle(f)
	p.h.out = keep.Slice(p.h.out)
	return status
}
