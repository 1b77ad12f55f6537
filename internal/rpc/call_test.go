package rpc

import (
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
