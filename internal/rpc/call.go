package rpc

import (
	"slices"

	"switchfs/internal/env"
)

// Calls is one node incarnation's way to wait for a peer (DESIGN.md "Waiting
// for a peer"): the retried call and the registry of the calls in flight,
// whose replies arrive as packets and reach their waiter through Answer.
type Calls struct {
	timeout env.Duration
	dead    *bool
	retries *uint64
	reg     map[uint64]answerer
}

// NewCalls returns the calls of an incarnation that waits timeout for each
// try, stops once *dead is set (it fail-stopped) and counts every unanswered
// send in *retries.
func NewCalls(timeout env.Duration, dead *bool, retries *uint64) Calls {
	return Calls{timeout: timeout, dead: dead, retries: retries, reg: make(map[uint64]answerer)}
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

// Request is a Call registered under id whose first reply, from any peer,
// ends it. It waits on p's reply slot, and deregisters before releasing it,
// so a late or duplicate reply finds nothing. Ids come from the node's
// incarnation, which issues each once.
func (c *Calls) Request(p *env.Proc, id uint64, tries int, send func()) (any, bool) {
	done := p.TakeReply()
	c.reg[id] = (*firstReply)(done)
	v, ok := c.Call(p, done, tries, send, nil)
	c.End(id)
	p.ReleaseReply()
	return v, ok
}

// Await registers a call under id waiting for one reply from each of peers,
// ascending, which it takes (see Awaiting). The caller ends it with End.
func (c *Calls) Await(id uint64, peers []env.NodeID) *Awaiting {
	a := &Awaiting{Expect: peers}
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

// answerer is a registered call's wait.
type answerer interface{ Answer(from env.NodeID, v any) }

// firstReply is the wait of a call whose first reply ends it: the calling
// process's reply slot, registered as it is.
type firstReply env.Future

func (r *firstReply) Answer(_ env.NodeID, v any) { (*env.Future)(r).Complete(v) }

// Awaiting is a wait for one reply from each of a set of peers: Done
// completes, with the last reply, once every peer in Expect has answered.
//
// Expect is the peers still to answer, in ascending id order: a caller that
// re-sends to them walks it. Answer deletes the peer from it in place, so an
// Awaiting owns the array behind Expect; a caller that still needs the full
// set passes a copy.
type Awaiting struct {
	Done   env.Future
	Expect []env.NodeID
}

// Expects reports whether n has yet to answer.
func (a *Awaiting) Expects(n env.NodeID) bool {
	_, ok := slices.BinarySearch(a.Expect, n)
	return ok
}

// Answer takes from's reply; one from a peer it does not expect — a stranger,
// or a peer that already answered — is dropped.
func (a *Awaiting) Answer(from env.NodeID, v any) {
	i, ok := slices.BinarySearch(a.Expect, from)
	if !ok {
		return
	}
	a.Expect = slices.Delete(a.Expect, i, i+1)
	if len(a.Expect) == 0 {
		a.Done.Complete(v)
	}
}
