package rpc

import (
	"testing"

	"switchfs/internal/env"
	"switchfs/internal/wire"
)

type ctlNode struct{ calls Calls }

func (n *ctlNode) Calls() *Calls { return &n.calls }

// TestRepliesRoute: a control reply of any type, listed in no route of its
// own, takes the table's one Replies route, which answers the call its id
// names; a table without that route drops it.
func TestRepliesRoute(t *testing.T) {
	var dead bool
	var retries uint64
	n := &ctlNode{calls: NewCalls(100, nil, nil, env.Millisecond, &dead, &retries)}
	rs := NewRoutes(Replies[*ctlNode]("ctl"), Peer("ack", func(*ctlNode, *env.Proc, *wire.Packet, *wire.CommitAck) {}))
	for id, body := range []wire.ControlReply{
		&wire.ReadInodeResp{CtlResp: wire.CtlResp{ID: 0}},
		&wire.TxnStatusResp{CtlResp: wire.CtlResp{ID: 1}},
		&wire.DataPullResp{CtlResp: wire.CtlResp{ID: 2}},
	} {
		a := n.calls.Await(uint64(id), []env.NodeID{101})
		r := rs.Of(body)
		if r == nil || r.Name != "ctl" {
			t.Fatalf("%T: route %+v, want the replies route", body, r)
		}
		r.Serve(n, nil, &wire.Packet{Origin: 101, Body: body})
		if v, ok := a.Done.Peek(); !ok || v != body {
			t.Errorf("%T: the call under id %d took %v, %v; want the reply", body, id, v, ok)
		}
		n.calls.End(uint64(id))
	}
	if NewRoutes(Peer("ack", func(*ctlNode, *env.Proc, *wire.Packet, *wire.CommitAck) {})).Of(&wire.FlushEntryResp{}) != nil {
		t.Error("a table without a replies route routed a control reply")
	}
}
