package rpc

import (
	"slices"
	"testing"

	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// BenchmarkPeerCall is the call layer benchmark (`make bench-layers`): one
// control call per op whose first request is lost, so it pays one round trip
// and one retransmission.
func BenchmarkPeerCall(b *testing.B) {
	sim := env.NewSim(3)
	defer sim.Shutdown()
	var dead bool
	var retries uint64
	calls := NewCalls(2*env.Millisecond, &dead, &retries)
	sim.AddNode(100, env.NodeConfig{Cores: 4, Handler: func(p *env.Proc, from env.NodeID, msg any) {
		resp := msg.(*wire.Packet).Body.(*wire.AggNowResp)
		calls.Answer(resp.Ctl, from, resp)
	}})
	got := 0
	sim.AddNode(101, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if got++; got%2 == 0 {
			req := msg.(*wire.Packet).Body.(*wire.AggNowReq)
			p.Send(from, &wire.Packet{Dst: from, Origin: 101, Body: &wire.AggNowResp{Ctl: req.Ctl}})
		}
	}})
	sim.Spawn(100, func(p *env.Proc) {
		for i := 0; i < b.N; i++ {
			id := uint64(i + 1)
			msg := &wire.AggNowReq{Ctl: id, From: 100}
			if _, ok := calls.Request(p, id, 100, func() {
				p.Send(101, &wire.Packet{Dst: 101, Origin: 100, Trace: p.TraceCtx(), Body: msg})
			}); !ok {
				b.Error("call gave up")
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run()
	if retries != uint64(b.N) {
		b.Fatalf("%d retransmissions for %d calls", retries, b.N)
	}
}

// TestAwaitingTable feeds replies, as handlers deliver them, to a call
// registered for each of a peer set or for its first reply, and checks which
// reply completes the wait and which peers are left expected.
func TestAwaitingTable(t *testing.T) {
	const id = 7
	for _, c := range []struct {
		what    string
		peers   []env.NodeID // nil: registered for the first reply
		answers []env.NodeID
		left    []env.NodeID
		by      int // the answer that completes the wait (-1: none)
	}{
		{what: "an expected peer leaves the set", peers: []env.NodeID{3, 5, 9},
			answers: []env.NodeID{5}, left: []env.NodeID{3, 9}, by: -1},
		{what: "an unexpected peer is dropped", peers: []env.NodeID{3, 5, 9},
			answers: []env.NodeID{4, 10, 1}, left: []env.NodeID{3, 5, 9}, by: -1},
		{what: "a duplicate is dropped", peers: []env.NodeID{3, 5, 9},
			answers: []env.NodeID{9, 9}, left: []env.NodeID{3, 5}, by: -1},
		{what: "the last peer completes the wait", peers: []env.NodeID{3, 5, 9},
			answers: []env.NodeID{9, 3, 5}, left: []env.NodeID{}, by: 2},
		{what: "a repeat after completion is dropped", peers: []env.NodeID{3},
			answers: []env.NodeID{3, 3}, left: []env.NodeID{}, by: 0},
		{what: "any one peer completes a first-reply wait",
			answers: []env.NodeID{42, 43}, by: 0},
	} {
		var dead bool
		var retries uint64
		calls := NewCalls(env.Millisecond, &dead, &retries)
		var a *Awaiting
		var done *env.Future
		if c.peers != nil {
			a = calls.Await(id, slices.Clone(c.peers))
			done = &a.Done
		} else {
			done = calls.AwaitReply(id)
		}
		for i, from := range c.answers {
			calls.Answer(id, from, i)
		}
		if v, ok := done.Peek(); ok != (c.by >= 0) || ok && v != c.by {
			t.Errorf("%s: completed %v with reply %v, want reply %d", c.what, ok, v, c.by)
		}
		if a != nil {
			if !slices.Equal(a.Expect, c.left) {
				t.Errorf("%s: still expected %v, want %v", c.what, a.Expect, c.left)
			}
			for _, n := range c.peers {
				if a.Expects(n) != slices.Contains(c.left, n) {
					t.Errorf("%s: Expects(%d) = %v", c.what, n, a.Expects(n))
				}
			}
		}
		calls.End(id)
		calls.Answer(id, 3, nil) // ended: finds nothing
		if calls.Pending() != 0 {
			t.Errorf("%s: %d calls left registered", c.what, calls.Pending())
		}
	}
}

// TestAwaitingAnswerAllocatesNothing: taking a reply — expected, unexpected,
// or the one that completes the wait — allocates nothing.
func TestAwaitingAnswerAllocatesNothing(t *testing.T) {
	var dead bool
	var retries uint64
	calls := NewCalls(env.Millisecond, &dead, &retries)
	a := calls.Await(1, make([]env.NodeID, 0, 3))
	first := calls.AwaitReply(2)
	if n := testing.AllocsPerRun(100, func() {
		a.Expect, a.Done = append(a.Expect[:0], 3, 5, 9), env.Future{}
		*first = env.Future{}
		calls.Answer(1, 4, nil)
		calls.Answer(1, 9, nil)
		calls.Answer(1, 9, nil)
		calls.Answer(1, 3, nil)
		calls.Answer(1, 5, nil)
		calls.Answer(2, 42, nil)
	}); n != 0 {
		t.Errorf("Answer: %v allocs per round, want 0", n)
	}
	if !a.Done.Done() || !first.Done() {
		t.Error("the round did not complete its waits")
	}
}
