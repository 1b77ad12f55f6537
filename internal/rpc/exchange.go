package rpc

import (
	"reflect"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Node is a node kind that makes and serves control exchanges through its
// incarnation's calls.
type Node interface{ Calls() *Calls }

// A control exchange is one function, serve(n, p, req, byPacket), that
// returns node n's reply to req (DESIGN.md "Waiting for a peer"). A request
// reaches it by packet, through its Exchange route, or in place, through Ask
// on the node itself; byPacket tells the two apart, so that an exchange which
// parses its request on arrival charges the parse only when one arrived.
// Requests and replies pass by value: served in place, an exchange allocates
// nothing of its own.

// Ask runs the control exchange serve for req at node to and returns its
// reply and the error the reply reports. When to is n itself, serve runs in
// place on p. Otherwise req goes to to under a fresh call id, in a packet of
// its own on every try, and Ask returns core.ErrTimeout once tries sends went
// unanswered.
func Ask[N Node, Q any, QP interface {
	*Q
	wire.Control
}, R interface{ Failure() error }](n N, p *env.Proc, to env.NodeID, tries int, serve func(N, *env.Proc, Q, bool) R, req Q) (R, error) {
	c := n.Calls()
	if to == c.self {
		r := serve(n, p, req, false)
		return r, r.Failure()
	}
	id := c.ids.Next()
	v, ok := c.Request(p, id, tries, func() {
		pkt, b := wire.NewPacket[Q, QP](to, c.self)
		*b = req
		*QP(b).Head() = wire.CtlReq{ID: id, From: c.self}
		c.send(p, pkt)
	})
	if !ok {
		var zero R
		return zero, core.ErrTimeout
	}
	r := v.(*R)
	return *r, (*r).Failure()
}

// Exchange routes a control request to serve and sends the reply it returns
// to the requester, under the request's call id, carved with its packet.
func Exchange[N Node, Q any, QP interface {
	*Q
	wire.Control
}, R any, RP interface {
	*R
	wire.ControlReply
}](name string, serve func(N, *env.Proc, Q, bool) R) Route[N] {
	return Peer(name, func(n N, p *env.Proc, _ *wire.Packet, req QP) {
		c, h := n.Calls(), req.Head()
		pkt, b := wire.NewPacket[R, RP](h.From, c.self)
		*b = serve(n, p, *req, true)
		RP(b).Head().ID = h.ID
		c.send(p, pkt)
	})
}

// Replies routes every control reply, whatever its type, to the call it
// answers.
func Replies[N Node](name string) Route[N] {
	return Route[N]{Name: name, typ: replyType, Serve: func(n N, _ *env.Proc, pkt *wire.Packet) {
		m := pkt.Body.(wire.ControlReply)
		n.Calls().Answer(m.Head().ID, pkt.Origin, m)
	}}
}

var replyType = reflect.TypeFor[wire.ControlReply]()
