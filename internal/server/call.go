package server

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Budgets of a call, in sends that may go unanswered before it gives up.
const (
	// pushTries bounds a proactive change-log push: the next trigger repeats
	// it.
	pushTries = 8
	// maxTries bounds the exchanges that should not give up early: an
	// aggregation's fetch, which then proceeds with the replies at hand (a
	// peer that stays down re-delivers its entries during its own recovery,
	// §A.1), control calls, and a change-log delivery made while not serving.
	// A peer's aggregation reply and the 2PC rounds send once more.
	maxTries = 100
)

// call is the one way this server waits for a peer (DESIGN.md "Waiting for a
// peer"). It sends a try, waits RetryTimeout for done, and repeats until done
// completes — returning its value — or tries sends went unanswered (0: no
// limit), when giveUp (if any) runs. Each unanswered send counts in
// Stats.Retries. A fail-stopped incarnation sends nothing more and gives
// nothing up: what it holds dies with it. send resolves its destination on
// every try.
func (s *Server) call(p *env.Proc, done *env.Future, tries int, send, giveUp func()) (any, bool) {
	for n := 0; !s.dead && (tries == 0 || n < tries); n++ {
		send()
		if v, ok := done.WaitTimeout(p, s.cfg.RetryTimeout); ok {
			return v, true
		}
		s.Stats.Retries++
	}
	if giveUp != nil && !s.dead {
		giveUp()
	}
	return nil, false
}

// awaiting is what a call waits for: done completes with the reply or, when
// expect names peers, once each of them has answered.
type awaiting struct {
	done   env.Future
	expect map[env.NodeID]bool
	err    error // a prepare round's first refusal
}

// answer takes from's reply; one from a peer it does not expect is dropped.
func (a *awaiting) answer(from env.NodeID, v any) {
	if a.expect != nil {
		if !a.expect[from] {
			return
		}
		delete(a.expect, from)
		if len(a.expect) > 0 {
			return
		}
	}
	a.done.Complete(v)
}

// expecting returns a wait for one reply from each of peers (from any one
// peer when there are none).
func expecting(peers []env.NodeID) *awaiting {
	a := &awaiting{}
	if len(peers) > 0 {
		a.expect = make(map[env.NodeID]bool, len(peers))
		for _, n := range peers {
			a.expect[n] = true
		}
	}
	return a
}

// await registers a call under id in the registry; the caller deletes the
// entry when the call ends, so a late or duplicate reply finds nothing. Call
// ids (commit acks, control replies) and transaction ids, whose decision acks
// share the registry, come from s.ids.
func (s *Server) await(id uint64, peers []env.NodeID) *awaiting {
	a := expecting(peers)
	s.calls[id] = a
	return a
}

// answer delivers a reply to the call registered under id, if one is.
func (s *Server) answer(id uint64, from env.NodeID, v any) {
	if a := s.calls[id]; a != nil {
		a.answer(from, v)
	}
}

// ctlCall performs a control-plane round trip to a peer.
func (s *Server) ctlCall(p *env.Proc, to env.NodeID, build func(ctl uint64) wire.Msg) (wire.Msg, error) {
	id := s.ids.Next()
	a := s.await(id, nil)
	defer delete(s.calls, id)
	msg := build(id)
	v, ok := s.call(p, &a.done, maxTries, func() { s.reply(p, to, msg) }, nil)
	if !ok {
		return nil, core.ErrTimeout
	}
	return v.(wire.Msg), nil
}
