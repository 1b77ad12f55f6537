package rpc

import "switchfs/internal/env"

// Calls is one node incarnation's way to wait for a peer (DESIGN.md "Waiting
// for a peer"): the retried call and the registry of the calls in flight,
// whose replies arrive as packets and reach their waiter through Answer.
type Calls struct {
	timeout env.Duration
	dead    *bool
	retries *uint64
	reg     map[uint64]*Awaiting
}

// NewCalls returns the calls of an incarnation that waits timeout for each
// try, stops once *dead is set (it fail-stopped) and counts every unanswered
// send in *retries.
func NewCalls(timeout env.Duration, dead *bool, retries *uint64) Calls {
	return Calls{timeout: timeout, dead: dead, retries: retries, reg: make(map[uint64]*Awaiting)}
}

// Call sends a try, waits for done, and repeats until done completes —
// returning its value — or tries sends went unanswered (0: no limit), when
// giveUp (if any) runs. A fail-stopped incarnation sends nothing more and
// gives nothing up: what it holds dies with it. send resolves its destination
// on every try.
func (c *Calls) Call(p *env.Proc, done *env.Future, tries int, send, giveUp func()) (any, bool) {
	for n := 0; !*c.dead && (tries == 0 || n < tries); n++ {
		send()
		if v, ok := done.WaitTimeout(p, c.timeout); ok {
			return v, true
		}
		*c.retries++
	}
	if giveUp != nil && !*c.dead {
		giveUp()
	}
	return nil, false
}

// Request is a Call registered under id whose first reply ends it.
func (c *Calls) Request(p *env.Proc, id uint64, tries int, send func()) (any, bool) {
	a := c.Await(id, nil)
	defer c.End(id)
	return c.Call(p, &a.Done, tries, send, nil)
}

// Await registers a call under id, waiting for one reply from each of peers
// (from any one peer when there are none). The caller ends it with End, so a
// late or duplicate reply finds nothing. Ids come from the node's
// incarnation, which issues each once.
func (c *Calls) Await(id uint64, peers []env.NodeID) *Awaiting {
	a := Expecting(peers)
	c.reg[id] = a
	return a
}

// Answer delivers from's reply to the call registered under id, if one is.
func (c *Calls) Answer(id uint64, from env.NodeID, v any) {
	if a := c.reg[id]; a != nil {
		a.Answer(from, v)
	}
}

// End deregisters the call under id.
func (c *Calls) End(id uint64) { delete(c.reg, id) }

// Pending reports the number of registered calls.
func (c *Calls) Pending() int { return len(c.reg) }

// Awaiting is what a call waits for: Done completes with the reply or, when
// Expect names peers, once each of them has answered.
type Awaiting struct {
	Done   env.Future
	Expect map[env.NodeID]bool
}

// Expecting returns a wait for one reply from each of peers (from any one
// peer when there are none).
func Expecting(peers []env.NodeID) *Awaiting {
	a := &Awaiting{}
	if len(peers) > 0 {
		a.Expect = make(map[env.NodeID]bool, len(peers))
		for _, n := range peers {
			a.Expect[n] = true
		}
	}
	return a
}

// Answer takes from's reply; one from a peer it does not expect is dropped.
func (a *Awaiting) Answer(from env.NodeID, v any) {
	if a.Expect != nil {
		if !a.Expect[from] {
			return
		}
		delete(a.Expect, from)
		if len(a.Expect) > 0 {
			return
		}
	}
	a.Done.Complete(v)
}
