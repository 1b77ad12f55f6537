package rpc

import (
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Registry is the calls a node has in flight that a first reply ends, each
// registered under its id on its process's reply slot, and the
// acknowledgement each request carries (Acked). It is all a node that never
// fail-stops needs to wait for a peer — a client, a baseline system's node —
// and holds 16 bytes and, once the node first calls, a pointer-valued map:
// the clients of the scale figure hold one each.
type Registry struct {
	reg map[uint64]*env.Future
	// acked is the cursor Acked moves: every id below it is finished.
	acked uint64
}

// NewRegistry returns the registry of a node whose last issued call id is
// issued (core.Incarnation.Issued).
func NewRegistry(issued uint64) Registry { return Registry{acked: issued} }

// Request is a call registered under id whose first reply, from any peer,
// ends it; each try waits wait, and every unanswered send counts in *retries
// (nil: uncounted). It waits on p's reply slot, and deregisters before
// releasing it, so a late or duplicate reply finds nothing. Ids come from the
// node's incarnation, which issues each once.
func (r *Registry) Request(p *env.Proc, id uint64, tries int, wait env.Duration, retries *uint64, send func()) (any, bool) {
	return r.request(p, id, tries, wait, nil, retries, send)
}

// request is Request stopping once *dead is set.
func (r *Registry) request(p *env.Proc, id uint64, tries int, wait env.Duration, dead *bool, retries *uint64, send func()) (any, bool) {
	done := p.TakeReply()
	if r.reg == nil {
		r.reg = make(map[uint64]*env.Future)
	}
	r.reg[id] = done
	v, ok := retry(p, done, tries, wait, dead, retries, send, nil)
	delete(r.reg, id)
	p.ReleaseReply()
	return v, ok
}

// Acked returns the acknowledgement a request under id carries, id being the
// last one the node issued: the id below which every Request it made
// finished, answered or given up. A call registers its id before its process
// next yields, so an issued id below id that is not registered is finished.
// The cursor passes each id once.
func (r *Registry) Acked(id uint64) uint64 {
	for r.acked < id && r.reg[r.acked] == nil {
		r.acked++
	}
	return r.acked
}

// Answer delivers a reply to the Request registered under id, if one is.
func (r *Registry) Answer(id uint64, _ env.NodeID, v any) {
	if f := r.reg[id]; f != nil {
		f.Complete(v)
	}
}

// Pending reports the number of registered calls.
func (r *Registry) Pending() int { return len(r.reg) }

// retry sends a try, waits wait for done, and repeats until done completes —
// returning its value — or tries sends went unanswered (0: no limit), each
// counted in *retries (nil: uncounted), when giveUp (if any) runs. Once *dead
// is set (nil: never) it sends nothing more and gives nothing up.
func retry(p *env.Proc, done *env.Future, tries int, wait env.Duration, dead *bool, retries *uint64, send, giveUp func()) (any, bool) {
	stopped := func() bool { return dead != nil && *dead }
	for n := 0; !stopped() && (tries == 0 || n < tries); n++ {
		send()
		if v, ok := done.WaitTimeout(p, wait); ok {
			return v, true
		}
		if retries != nil {
			*retries++
		}
	}
	if giveUp != nil && !stopped() {
		giveUp()
	}
	return nil, false
}

// Calls is one node incarnation's way to wait for a peer (DESIGN.md "Waiting
// for a peer"): its Registry, the retried call, the calls awaiting a set of
// peers, and the control exchanges it makes and serves (Ask, Exchange). Its
// calls stop when the incarnation fail-stops. The metadata servers and the
// data nodes wait through one. Acked passes its Requests, not its Awaits: no
// request these nodes send carries the registry's acknowledgement (a 2PC
// prepare carries the oldest vote round's id instead).
type Calls struct {
	Registry
	awaits  map[uint64]*Awaiting
	self    env.NodeID
	ids     *core.Incarnation
	send    func(*env.Proc, *wire.Packet)
	timeout env.Duration
	dead    *bool
	retries *uint64
}

// NewCalls returns the calls of node self's incarnation, which draws call ids
// from ids (nil: the caller names them) and sends its packets with send
// (which sends nothing once the incarnation fail-stopped). Call and Ask wait
// timeout for each try. Calls stop once *dead is set and count every
// unanswered send in *retries.
func NewCalls(self env.NodeID, ids *core.Incarnation, send func(*env.Proc, *wire.Packet),
	timeout env.Duration, dead *bool, retries *uint64) Calls {
	c := Calls{self: self, ids: ids, send: send, timeout: timeout, dead: dead, retries: retries}
	if ids != nil {
		c.Registry = NewRegistry(ids.Issued())
	}
	return c
}

// Call sends a try, waits for done, and repeats until done completes —
// returning its value — or tries sends went unanswered (0: no limit), when
// giveUp (if any) runs. A fail-stopped incarnation sends nothing more and
// gives nothing up: what it holds dies with it. send resolves its destination
// on every try.
func (c *Calls) Call(p *env.Proc, done *env.Future, tries int, send, giveUp func()) (any, bool) {
	return retry(p, done, tries, c.timeout, c.dead, c.retries, send, giveUp)
}

// Request is Registry.Request counting in the incarnation's retries and
// stopping when it fail-stops.
func (c *Calls) Request(p *env.Proc, id uint64, tries int, wait env.Duration, send func()) (any, bool) {
	return c.request(p, id, tries, wait, c.dead, c.retries, send)
}

// Await registers a call under id waiting for one reply from each of peers,
// ascending, which it takes (see Awaiting). The caller ends it with End.
func (c *Calls) Await(id uint64, peers []env.NodeID) *Awaiting {
	a := &Awaiting{Expect: peers}
	if c.awaits == nil {
		c.awaits = make(map[uint64]*Awaiting)
	}
	c.awaits[id] = a
	return a
}

// Answer delivers from's reply to the call registered under id, if one is.
func (c *Calls) Answer(id uint64, from env.NodeID, v any) {
	if a := c.awaits[id]; a != nil {
		a.Answer(from, v)
		return
	}
	c.Registry.Answer(id, from, v)
}

// End deregisters the Await under id.
func (c *Calls) End(id uint64) { delete(c.awaits, id) }

// Pending reports the number of registered calls.
func (c *Calls) Pending() int { return c.Registry.Pending() + len(c.awaits) }

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
