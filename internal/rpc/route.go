package rpc

import (
	"fmt"
	"reflect"

	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Routes is a node kind's dispatch table: how a node of kind N serves each
// message type it receives. A message type it does not list is dropped.
type Routes[N any] map[reflect.Type]*Route[N]

// Route is how a node serves one message type.
type Route[N any] struct {
	// Name labels the handler span ("": the node opens none).
	Name string
	// Client marks a client request: the node does not serve it while it is
	// not serving (the metadata server holds it, the data node drops it).
	Client bool
	// Dedup reports whether a client request passes the replay-or-begin step
	// (Window.Admit) before its handler runs; every client route declares it.
	Dedup func(wire.Msg) bool
	// Serve runs the handler.
	Serve func(n N, p *env.Proc, pkt *wire.Packet)
	typ   reflect.Type
}

// NewRoutes indexes routes by their message type. It panics when a type is
// routed twice, or when a route's Client mark disagrees with its message:
// a body that embeds wire.ReqCommon is a client request, which must declare
// whether it is deduplicated, and no other body is.
func NewRoutes[N any](routes ...Route[N]) Routes[N] {
	rs := make(Routes[N], len(routes))
	for _, r := range routes {
		if _, twice := rs[r.typ]; twice {
			panic(fmt.Sprintf("rpc: %v routed twice", r.typ))
		}
		if r.typ.Implements(requestType) != r.Client {
			panic(fmt.Sprintf("rpc: %v routed with Client %v", r.typ, r.Client))
		}
		rs[r.typ] = &r
	}
	return rs
}

var requestType = reflect.TypeFor[wire.Request]()

// Of returns the route of m's type, or nil. A control reply with no route of
// its own takes the table's Replies route.
func (rs Routes[N]) Of(m wire.Msg) *Route[N] {
	if r := rs[reflect.TypeOf(m)]; r != nil {
		return r
	}
	if _, ok := m.(wire.ControlReply); ok {
		return rs[replyType]
	}
	return nil
}

// Client routes a client request to h, deduplicated when dedup says so
// (Always, Never, or a test of the request).
func Client[N any, P wire.Request](name string, dedup func(P) bool, h func(N, *env.Proc, *wire.Packet, P)) Route[N] {
	if dedup == nil {
		panic(fmt.Sprintf("rpc: client route %q does not declare whether it is deduplicated", name))
	}
	r := Peer(name, h)
	r.Client, r.Dedup = true, func(m wire.Msg) bool { return dedup(m.(P)) }
	return r
}

// Peer routes a message from a peer node or the switch to h.
func Peer[N any, P wire.Msg](name string, h func(N, *env.Proc, *wire.Packet, P)) Route[N] {
	return Route[N]{Name: name, typ: reflect.TypeFor[P](), Serve: func(n N, p *env.Proc, pkt *wire.Packet) {
		h(n, p, pkt, pkt.Body.(P))
	}}
}

// Always deduplicates every request of a route.
func Always[P wire.Request](P) bool { return true }

// Never deduplicates no request of a route: each delivery runs.
func Never[P wire.Request](P) bool { return false }
