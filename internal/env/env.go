// Package env provides the runtime SwitchFS protocol code runs on.
//
// The server, client, switch, and baseline implementations all execute on
// Sim: a deterministic discrete-event simulator with a virtual clock. Nodes
// have a configurable number of CPU cores (FIFO resources), links have
// configurable latency, jitter, loss and duplication, and all randomness is
// seeded. Benchmarks reproduce the paper's figures under Sim, because
// protocol-induced costs (RTT counts, lock serialization, per-op service
// time) are what the paper measures — and because virtual time can express
// "16 servers × 4 cores" on any host.
//
// Protocol code is written against Proc (a lightweight process) and the
// blocking primitives Future, Mutex, RWMutex, Cond and Semaphore. Processes
// are coroutines resumed by one driver loop, so exactly one runs at a time
// and nothing in the tree needs host-level synchronisation.
package env

import "fmt"

// Time is a virtual clock reading in nanoseconds.
type Time = int64

// Duration is a span of nanoseconds.
type Duration = int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// NodeID names a node (client, metadata server, switch, data node) on the
// simulated L2 network — the moral equivalent of a MAC address.
type NodeID uint32

// TraceCtx is a causal tracing context: the trace a unit of work belongs to
// and the span it currently executes under. It lives here (not in
// internal/trace) so wire packets can carry it and Proc can hold an ambient
// copy without env importing the recorder. A zero TraceCtx means "not
// traced" and costs nothing to propagate.
type TraceCtx struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context belongs to a live trace.
func (t TraceCtx) Valid() bool { return t.TraceID != 0 }

// Handler processes one message delivered to a node. It runs on a fresh Proc
// and may block on primitives, sleep, compute, and send messages.
type Handler func(p *Proc, from NodeID, msg any)

// NodeConfig configures a node at registration time.
type NodeConfig struct {
	// Cores is the number of CPU cores: the maximum number of concurrently
	// executing Compute sections. Zero means unlimited (no CPU modeling) —
	// used for client nodes, whose CPU is never the bottleneck in the paper.
	Cores int
	// Handler receives inbound messages. A nil handler drops them.
	Handler Handler
}

// Node is a registered network endpoint with its CPU resource.
type Node struct {
	ID    NodeID
	cores *Semaphore // nil when Cores == 0
	h     Handler
	down  bool
}

// SetDown marks the node crashed (true) or alive (false). Messages to and
// from a crashed node are dropped, and its handler is not invoked — the
// volatile-state loss itself is the owning subsystem's business.
func (n *Node) SetDown(down bool) { n.down = down }

// Down reports the crash flag.
func (n *Node) Down() bool { return n.down }

// SetHandler replaces the node's message handler (server restart).
func (n *Node) SetHandler(h Handler) { n.h = h }

// SetCores resizes the node's CPU resource in place (gray failure: core
// degradation). Sections already computing finish on the old budget; the
// new limit governs as their cores free up. A node registered with
// unlimited cores (Cores == 0) stays unlimited.
func (n *Node) SetCores(k int) {
	if n.cores == nil || k <= 0 {
		return
	}
	n.cores.SetLimit(k)
}

// Proc is a lightweight process: protocol code's execution context. Procs
// are cooperatively scheduled: exactly one runs at a time.
type Proc struct {
	env  *Sim
	node *Node
	// co is the pooled worker coroutine the process runs on.
	co *simProcState
	// timedOut communicates Future timeout state between the expiry event
	// and the resumed process.
	timedOut bool
	// replyHeld marks reply taken by a call (TakeReply).
	replyHeld bool
	// tw is the expiry event of the Future wait in progress; an expiry of
	// another sequence number belongs to a wait that already ended.
	tw evRef
	// state tracks the scheduler lifecycle (idle/dispatched/running/parked);
	// the scheduler asserts its invariants on every transition.
	state int
	// tctx is the ambient tracing context: the span this process currently
	// executes under. Handlers set it from the inbound packet's TraceCtx and
	// nested spans push/restore it; the scheduler clears it when a pooled
	// worker is re-dispatched so contexts never leak across handler bodies.
	tctx TraceCtx
	// reply is the process's reply slot: the one future each of its calls
	// waits on (DESIGN.md "Waiting for a peer").
	reply Future
	// nextWaiter is the process queued behind this one on the Future both
	// wait for.
	nextWaiter *Proc
}

// TakeReply takes p's reply slot for one call and returns it reset. A
// process makes one call at a time: taking a held slot panics. The call's
// registry must stop naming the slot before ReleaseReply, so a late reply
// finds nothing; a completion that still reaches a released slot is wiped by
// the next TakeReply.
func (p *Proc) TakeReply() *Future {
	if p.replyHeld {
		panic("env: reply slot taken twice")
	}
	p.replyHeld = true
	p.reply = Future{}
	return &p.reply
}

// ReleaseReply returns p's reply slot once its call deregistered.
func (p *Proc) ReleaseReply() { p.replyHeld = false }

// Env returns the simulator this process runs on.
func (p *Proc) Env() *Sim { return p.env }

// Self returns the node this process is bound to.
func (p *Proc) Self() NodeID { return p.node.ID }

// Now returns the current clock reading.
func (p *Proc) Now() Time { return p.env.cur }

// Send transmits a message to another node, subject to the network's
// latency, loss and duplication configuration. Send never blocks.
func (p *Proc) Send(to NodeID, msg any) {
	p.env.deliver(p.node.ID, to, msg, 0)
}

// Spawn starts a sibling process on the same node.
func (p *Proc) Spawn(fn func(*Proc)) { p.env.newProc(p.node, fn) }

// TraceCtx returns the ambient tracing context (zero when untraced).
func (p *Proc) TraceCtx() TraceCtx { return p.tctx }

// SetTraceCtx replaces the ambient tracing context. Span helpers save and
// restore the previous value around nested sections.
func (p *Proc) SetTraceCtx(t TraceCtx) { p.tctx = t }

// String aids debugging.
func (p *Proc) String() string { return fmt.Sprintf("proc@%d", p.node.ID) }

// Timer is a cancellable scheduled callback.
type Timer struct {
	s  *Sim
	fn func()
	// ev is the one event that may fire fn; the zero evRef when none is
	// pending. An event of another sequence number is stale.
	ev evRef
}

// Cancel prevents the callback from firing if it has not fired yet. Its
// event leaves the queue, unless it sits in the current bucket's heap or the
// far heap: there it stays and fires as a no-op.
func (t *Timer) Cancel() {
	if t != nil {
		t.s.pq.remove(t.ev)
		t.ev = evRef{}
	}
}

// Reset re-arms t to fire once, d from now, whether it is pending, fired or
// cancelled. A pending event is dropped as by Cancel; the timer is reused,
// so re-arming allocates nothing.
func (t *Timer) Reset(d Duration) {
	t.s.pq.remove(t.ev)
	t.ev = t.s.push(d, event{kind: evTimer, msg: t})
}

func (t *Timer) fire(seq uint64) {
	if seq == t.ev.seq && t.fn != nil {
		t.ev = evRef{}
		t.fn()
	}
}
