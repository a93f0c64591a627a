// Package a is the tracepropagation fixture: contexts dropped versus
// threaded, spans finished versus lost, against the real trace package.
package a

import (
	"mccuckoo/internal/telemetry/trace"
)

type client struct{ tr *trace.Recorder }

type peer struct{}

func (p *peer) Send(payload []byte) error { return nil }

func (p *peer) SendCtx(tc trace.Context, payload []byte) error { return nil } // want `trace context parameter tc is never used`

// threaded is the accepted idiom: the received context reaches the
// outbound Ctx call.
func (c *client) threaded(p *peer, tc trace.Context, payload []byte) error {
	return p.SendCtx(tc, payload)
}

func (c *client) dropped(p *peer, tc trace.Context, payload []byte) error { // want `trace context parameter tc is never used`
	return p.Send(payload)
}

// explicitDrop declares it holds no context; the untraced call is its
// intent.
func (c *client) explicitDrop(p *peer, _ trace.Context, payload []byte) error {
	return p.Send(payload)
}

// spanThreaded is the traced fan-out shape: span context threaded into the
// outbound call, span finished.
func (c *client) spanThreaded(p *peer, payload []byte) error {
	root := c.tr.Start(c.tr.Begin(), trace.KindClientOp)
	defer root.Finish()
	return p.SendCtx(root.Context(), payload)
}

func (c *client) discards() {
	c.tr.Start(c.tr.Begin(), trace.KindClientOp) // want `span result of c\.tr\.Start is discarded`
}

func (c *client) neverFinished(p *peer, payload []byte) error {
	sp := c.tr.Start(c.tr.Begin(), trace.KindClientOp) // want `span sp is never finished or handed off`
	return p.SendCtx(sp.Context(), payload)
}

// handsOff transfers the span to another function; ownership moved, not
// lost.
func (c *client) handsOff() {
	sp := c.tr.Start(c.tr.Begin(), trace.KindReplicaRTT)
	go finishLater(sp)
}

func finishLater(sp trace.Span) {
	sp.Finish()
}

// begin returns the span to its caller.
func (c *client) begin() trace.Span {
	sp := c.tr.Start(c.tr.Begin(), trace.KindClientOp)
	return sp
}

// child spans started off a parameter span must be finished too.
func (c *client) child(root trace.Span) {
	tsp := root.StartChild(trace.KindReplicaRTT)
	tsp.Finish()
}

func (c *client) childLost(root trace.Span) {
	root.StartChild(trace.KindReplicaRTT) // want `span result of root\.StartChild is discarded`
}
