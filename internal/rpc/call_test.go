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
	calls := NewCalls(100, nil, nil, 2*env.Millisecond, &dead, &retries)
	sim.AddNode(100, env.NodeConfig{Cores: 4, Handler: func(p *env.Proc, from env.NodeID, msg any) {
		resp := msg.(*wire.Packet).Body.(*wire.FlushEntryResp)
		calls.Answer(resp.ID, from, resp)
	}})
	got := 0
	sim.AddNode(101, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if got++; got%2 == 0 {
			req := msg.(*wire.Packet).Body.(*wire.FlushEntryReq)
			p.Send(from, &wire.Packet{Dst: from, Origin: 101, Body: &wire.FlushEntryResp{CtlResp: wire.CtlResp{ID: req.ID}}})
		}
	}})
	sim.Spawn(100, func(p *env.Proc) {
		for i := 0; i < b.N; i++ {
			id := uint64(i + 1)
			msg := &wire.FlushEntryReq{CtlReq: wire.CtlReq{ID: id, From: 100}}
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

// TestRequestAllocatesNothing: a Request answered on its first try waits on
// the process's reply slot and allocates nothing of its own. Both peers
// answer, from packets they reuse; the first reply ends the call and the
// later one finds no registered call.
func TestRequestAllocatesNothing(t *testing.T) {
	sim := env.NewSim(3)
	defer sim.Shutdown()
	var dead bool
	var retries uint64
	calls := NewCalls(100, nil, nil, 2*env.Millisecond, &dead, &retries)
	sim.AddNode(100, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		resp := msg.(*wire.Packet).Body.(*wire.FlushEntryResp)
		calls.Answer(resp.ID, from, resp)
	}})
	var bodies [2]wire.FlushEntryResp
	for i, peer := range []env.NodeID{101, 102} {
		resp := &wire.Packet{Dst: 100, Origin: peer, Body: &bodies[i]}
		sim.AddNode(peer, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
			p.Sleep(env.Duration(i) * env.Microsecond)
			bodies[i].ID = msg.(*wire.Packet).Body.(*wire.FlushEntryReq).ID
			p.Send(from, resp)
		}})
	}
	req := &wire.FlushEntryReq{CtlReq: wire.CtlReq{From: 100}}
	pkts := []*wire.Packet{{Dst: 101, Origin: 100, Body: req}, {Dst: 102, Origin: 100, Body: req}}
	var allocs float64
	var v any
	var ok bool
	sim.Spawn(100, func(p *env.Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			req.ID++
			v, ok = calls.Request(p, req.ID, 3, func() {
				for _, pkt := range pkts {
					p.Send(pkt.Dst, pkt)
				}
			})
			p.Sleep(2 * env.Microsecond) // the later reply arrives and is dropped
		})
	})
	sim.Run()
	if !ok || v != &bodies[0] {
		t.Fatalf("Request returned %v, %v; want the first reply", v, ok)
	}
	if allocs != 0 || retries != 0 || calls.Pending() != 0 {
		t.Errorf("Request: %v allocs, %d retries, %d calls left registered; want 0, 0, 0", allocs, retries, calls.Pending())
	}
}

// TestCallGivesUpOnce: a call whose sends all go unanswered runs its give-up
// action once, after its budget; a fail-stopped incarnation sends nothing
// more and gives nothing up.
func TestCallGivesUpOnce(t *testing.T) {
	for _, c := range []struct {
		crashAt        env.Duration // 0: never
		sends, giveUps int
	}{{sends: 3, giveUps: 1}, {crashAt: env.Millisecond + 1, sends: 2}} {
		sim := env.NewSim(1)
		sim.AddNode(100, env.NodeConfig{})
		var dead bool
		var retries uint64
		calls := NewCalls(100, nil, nil, env.Millisecond, &dead, &retries)
		if c.crashAt > 0 {
			sim.After(c.crashAt, func() { dead = true })
		}
		sends, giveUps := 0, 0
		sim.Spawn(100, func(p *env.Proc) {
			var never env.Future
			calls.Call(p, &never, 3, func() { sends++ }, func() { giveUps++ })
		})
		sim.Run()
		sim.Shutdown()
		if sends != c.sends || giveUps != c.giveUps || retries != uint64(c.sends) {
			t.Errorf("crash at %d: %d sends, %d give-ups, %d retries; want %d, %d, %d",
				c.crashAt, sends, giveUps, retries, c.sends, c.giveUps, c.sends)
		}
	}
}

// TestAwaitingTable feeds replies, as handlers deliver them, to a call
// registered for each of a peer set, and checks which reply completes the
// wait and which peers are left expected.
func TestAwaitingTable(t *testing.T) {
	const id = 7
	for _, c := range []struct {
		what    string
		peers   []env.NodeID
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
	} {
		var dead bool
		var retries uint64
		calls := NewCalls(100, nil, nil, env.Millisecond, &dead, &retries)
		a := calls.Await(id, slices.Clone(c.peers))
		for i, from := range c.answers {
			calls.Answer(id, from, i)
		}
		if v, ok := a.Done.Peek(); ok != (c.by >= 0) || ok && v != c.by {
			t.Errorf("%s: completed %v with reply %v, want reply %d", c.what, ok, v, c.by)
		}
		if !slices.Equal(a.Expect, c.left) {
			t.Errorf("%s: still expected %v, want %v", c.what, a.Expect, c.left)
		}
		for _, n := range c.peers {
			if a.Expects(n) != slices.Contains(c.left, n) {
				t.Errorf("%s: Expects(%d) = %v", c.what, n, a.Expects(n))
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
	calls := NewCalls(100, nil, nil, env.Millisecond, &dead, &retries)
	a := calls.Await(1, make([]env.NodeID, 0, 3))
	if n := testing.AllocsPerRun(100, func() {
		a.Expect, a.Done = append(a.Expect[:0], 3, 5, 9), env.Future{}
		calls.Answer(1, 4, nil)
		calls.Answer(1, 9, nil)
		calls.Answer(1, 9, nil)
		calls.Answer(1, 3, nil)
		calls.Answer(1, 5, nil)
	}); n != 0 {
		t.Errorf("Answer: %v allocs per round, want 0", n)
	}
	if !a.Done.Done() {
		t.Error("the round did not complete its waits")
	}
}
