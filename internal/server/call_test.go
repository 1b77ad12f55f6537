package server

import (
	"reflect"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wire"
)

// TestCallTable drives the one retried call, as the metadata server makes it
// (a Request, waiting for its first reply), through every way it can end. The server (100) calls the owner of a
// fingerprint group, which the ring places on peer 101 or 102: stubs that
// record each request and answer the ones the case names, after a delay and
// optionally once more later.
func TestCallTable(t *testing.T) {
	const (
		timeout = 2 * env.Millisecond
		rtt     = 10 * env.Microsecond // generous bound on one round trip
	)
	for _, c := range []struct {
		what     string
		tries    int
		answer   map[int]bool // the requests (1-based, across peers) answered
		delay    env.Duration // each answer leaves this long after its request
		again    env.Duration // and is repeated this much later (0: once)
		crashAt  env.Duration // the server fail-stops at this instant (0: never)
		moveAt   env.Duration // the group moves to peer 102 at this instant (0: never)
		sent     []env.NodeID // the destination of every send, in order
		ok       bool
		retries  uint64
		returned env.Duration // the call returns no earlier, and within rtt
	}{
		{what: "a reply before the timeout: one send, nothing counted",
			tries: 3, answer: map[int]bool{1: true},
			sent: []env.NodeID{101}, ok: true},
		{what: "the second send answered: one retry",
			tries: 3, answer: map[int]bool{2: true},
			sent: []env.NodeID{101, 101}, ok: true, retries: 1, returned: timeout},
		{what: "never answered: gives up after exactly N sends",
			tries: 3,
			sent:  []env.NodeID{101, 101, 101}, retries: 3, returned: 3 * timeout},
		{what: "fail-stop mid-wait: nothing more is sent",
			tries: 5, crashAt: timeout + env.Microsecond,
			sent: []env.NodeID{101, 101}, retries: 2, returned: 2 * timeout},
		{what: "no budget: sends until answered",
			tries: 0, answer: map[int]bool{7: true},
			sent: []env.NodeID{101, 101, 101, 101, 101, 101, 101}, ok: true, retries: 6,
			returned: 6 * timeout},
		{what: "the group moves mid-call: every try resolves the destination",
			tries: 3, answer: map[int]bool{2: true}, moveAt: env.Microsecond / 2,
			sent: []env.NodeID{101, 102}, ok: true, retries: 1, returned: timeout},
		{what: "a duplicate reply after completion is dropped",
			tries: 3, answer: map[int]bool{1: true}, again: timeout,
			sent: []env.NodeID{101}, ok: true},
		{what: "a late reply after the give-up is dropped",
			tries: 1, answer: map[int]bool{1: true}, delay: timeout + env.Microsecond,
			sent: []env.NodeID{101}, retries: 1, returned: timeout},
	} {
		sim := env.NewSim(3)
		key := core.Key{PID: core.RootDirID, Name: "d"}
		fp := key.Fingerprint()
		rg := ring.New([]uint32{0, 1}, 0, func(slot uint32) env.NodeID { return 101 + env.NodeID(slot) })
		rg.SetOverride(fp, 0)
		s := New(sim, Config{ID: 100, Costs: env.DefaultCosts(), Ring: rg,
			Peers: []env.NodeID{100}, SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
		var sent []env.NodeID
		got := 0 // requests the peers received
		for _, peer := range []env.NodeID{101, 102} {
			sim.AddNode(peer, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
				req := msg.(*wire.Packet).Body.(*wire.FlushEntryReq)
				if got++; !c.answer[got] {
					return
				}
				p.Sleep(c.delay)
				p.Send(from, &wire.Packet{Dst: from, Origin: peer, Body: &wire.FlushEntryResp{CtlResp: wire.CtlResp{ID: req.ID}}})
				if c.again > 0 {
					p.Sleep(c.again)
					p.Send(from, &wire.Packet{Dst: from, Origin: peer, Body: &wire.FlushEntryResp{CtlResp: wire.CtlResp{ID: req.ID, Err: core.ErrnoRetry}}})
				}
			}})
		}
		sim.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
			if from == 100 {
				sent = append(sent, to)
			}
			return env.Pass
		}
		if c.crashAt > 0 {
			sim.After(c.crashAt, s.Crash)
		}
		if c.moveAt > 0 {
			sim.After(c.moveAt, func() { rg.SetOverride(fp, 1) })
		}
		var v, late any
		var ok bool
		var returned env.Time
		sim.Spawn(100, func(p *env.Proc) {
			id := s.ids.Next()
			msg := &wire.FlushEntryReq{CtlReq: wire.CtlReq{ID: id, From: 100}, Key: key}
			v, ok = s.rpc.Request(p, id, c.tries, timeout, func() { s.reply(p, s.ownerOfFP(fp), msg) })
			returned = p.Now()
			// The process's next wait outlasts every repeated reply.
			late, _ = p.TakeReply().WaitTimeout(p, 2*timeout)
			p.ReleaseReply()
		})
		sim.Run()
		sim.Shutdown()
		if !reflect.DeepEqual(sent, c.sent) {
			t.Errorf("%s: sent to %v, want %v", c.what, sent, c.sent)
		}
		if ok != c.ok || s.Stats.Retries != c.retries {
			t.Errorf("%s: ok %v, %d retries; want %v, %d", c.what, ok, s.Stats.Retries, c.ok, c.retries)
		}
		if at := env.Duration(returned); at < c.returned || at > c.returned+rtt {
			t.Errorf("%s: returned at %v, want %v", c.what, returned, c.returned)
		}
		if n := s.rpc.Pending(); n != 0 {
			t.Errorf("%s: %d calls left registered", c.what, n)
		}
		// Only a registered call takes a reply: the first one ends it, and a
		// repeat finds no call, so the process's next wait does not see it.
		if resp, _ := v.(*wire.FlushEntryResp); ok && (resp == nil || resp.Err != core.ErrnoOK) {
			t.Errorf("%s: returned %v, want the first reply", c.what, v)
		}
		if late != nil {
			t.Errorf("%s: a reply after the call ended reached the next wait: %v", c.what, late)
		}
	}
}
