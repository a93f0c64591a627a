package wire

import "mccuckoo"

// ServeProbe drives one connection worker's serve path in-process, bypassing
// the network: each Handle call executes a decoded request frame exactly as a
// connection's worker goroutine would, including the response-buffer freelist
// cycle the connection's writer performs. It exists so the perf gate's wire
// series and the zero-allocation assertions measure the serve path itself,
// not loopback TCP.
//
// A ServeProbe is not safe for concurrent use — like a connection worker, it
// is single-threaded by construction.
type ServeProbe struct {
	h    *connHandler
	free chan []byte
}

// NewServeProbe returns a probe serving store with default server
// configuration. The backing Server is never started; only the request
// execution path is exercised.
func NewServeProbe(store mccuckoo.BatchStore) (*ServeProbe, error) {
	srv, err := NewServer(Config{Store: store})
	if err != nil {
		return nil, err
	}
	free := make(chan []byte, 4)
	return &ServeProbe{h: &connHandler{srv: srv, freeResp: free}, free: free}, nil
}

// Handle executes one request frame and returns the response status, after
// recycling the response buffer the way a connection writer would once the
// bytes were on the wire.
func (p *ServeProbe) Handle(f Frame) byte {
	b := p.h.handle(f)
	status := b[3] &^ respFlag
	recycle(p.free, b)
	return status
}
