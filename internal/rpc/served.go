// Package rpc is what every node kind needs to turn at-least-once UDP
// exchanges into exactly-once ones (§5.4.1) and to wait for a peer: Routes,
// the dispatch table that says which client requests are deduplicated;
// Served, the memo of the requests a node took up, which their senders'
// acknowledgements release and whose Admit is the replay-or-begin step those
// requests pass; Registry, the one registry of calls in flight, which also
// gives each request its acknowledgement; and Calls, the one retried call,
// built on a Registry. The metadata server uses all of them — Served for its
// clients' requests and for 2PC prepares, which carry their coordinator's
// acknowledgement — and so does the data node; the client waits through a
// Registry; the baseline file systems use Served, whose Admit every baseline
// request passes in its server's one dispatch, and a Registry, through which
// their clients and servers wait.
package rpc

import (
	"cmp"
	"slices"

	"switchfs/internal/env"
)

// Served remembers the requests a node took up, so a duplicate is answered
// from the memo instead of re-executing (§5.4.1): RIFL's completion records,
// released by the sender's acknowledgement. Every request carries one, the id
// below which its sender finished every call, answered or given up: no
// request below it is waited for any more. The sender — called the client
// below — is a client, whose requests are keyed by RPC id, or a 2PC
// coordinator, whose prepares are keyed by transaction id. Per client, Served
// keeps that floor and the memos of the requests at or above it, in id order:
// those still in flight and those answered but not yet acknowledged. Nothing
// else bounds it. The zero value is an empty memo.
type Served[V any] struct {
	clients map[env.NodeID]*servedClient[V]
}

// servedClient is one client's floor and its memos, ascending by RPC id, all
// at or above the floor.
type servedClient[V any] struct {
	floor uint64
	memos []memo[V]
}

// memo is one request taken up: in flight until done, then answered by val.
type memo[V any] struct {
	rpc  uint64
	val  V
	done bool
}

// Admit is the replay-or-begin step a deduplicated request passes before its
// handler runs, and it reports whether the handler runs. It first raises the
// client's floor to acked, the request's acknowledgement, and releases the
// memos below it; a floor never falls. A request below the floor is one the
// client finished: it is dropped without a reply. A request new to the memo
// is marked in flight and runs. A duplicate of a request recorded is answered
// with replay(v); a duplicate of one still in flight is dropped, since its
// first delivery will answer.
func (s *Served[V]) Admit(client env.NodeID, rpc, acked uint64, replay func(V)) bool {
	c := s.of(client)
	if acked > c.floor {
		c.floor = acked
		below, _ := c.find(acked)
		c.memos = slices.Delete(c.memos, 0, below)
	}
	if rpc < c.floor {
		return false
	}
	i, ok := c.find(rpc)
	if ok {
		if m := &c.memos[i]; m.done {
			replay(m.val)
		}
		return false
	}
	c.memos = slices.Insert(c.memos, i, memo[V]{rpc: rpc})
	return true
}

// Put records v as the reply to client's request rpc. A request below the
// client's floor records nothing: the client finished it — it gave the call
// up while this node was still running it.
func (s *Served[V]) Put(client env.NodeID, rpc uint64, v V) {
	c := s.of(client)
	if rpc < c.floor {
		return
	}
	i, ok := c.find(rpc)
	if !ok {
		c.memos = slices.Insert(c.memos, i, memo[V]{rpc: rpc})
	}
	c.memos[i].val, c.memos[i].done = v, true
}

// Delete forgets client's request rpc, if it is remembered, so that a
// retransmission of it runs again.
func (s *Served[V]) Delete(client env.NodeID, rpc uint64) {
	if c := s.clients[client]; c != nil {
		if i, ok := c.find(rpc); ok {
			c.memos = slices.Delete(c.memos, i, i+1)
		}
	}
}

// Held reports the number of client's requests remembered.
func (s *Served[V]) Held(client env.NodeID) int {
	if c := s.clients[client]; c != nil {
		return len(c.memos)
	}
	return 0
}

// of returns client's memos, making them at its first request.
func (s *Served[V]) of(client env.NodeID) *servedClient[V] {
	c := s.clients[client]
	if c == nil {
		if s.clients == nil {
			s.clients = make(map[env.NodeID]*servedClient[V])
		}
		c = new(servedClient[V])
		s.clients[client] = c
	}
	return c
}

// find returns the position of rpc among the memos, and whether it is there.
func (c *servedClient[V]) find(rpc uint64) (int, bool) {
	return slices.BinarySearchFunc(c.memos, rpc, func(m memo[V], rpc uint64) int { return cmp.Compare(m.rpc, rpc) })
}
