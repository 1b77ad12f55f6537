package env

import (
	"fmt"
	"iter"
	"math/rand"
)

// Sim is the deterministic discrete-event environment. All processes are
// cooperatively scheduled: exactly one process (or event callback) executes
// at any moment, events fire in (time, insertion) order, and every random
// decision comes from a single seeded generator — identical configurations
// produce identical executions.
//
// The engine is built for throughput: events are plain values in a calendar
// queue (no allocation per message delivery, wakeup, sleep or RPC timeout),
// and processes are coroutines (iter.Pull) resumed by a driver loop, so a
// handoff is two coroutine switches that never enter the Go scheduler.
// Whichever coroutine is running drains the event queue; when it pops another
// process's wakeup it names that process the successor and yields to the
// driver, which resumes it. A process whose own wakeup is the next event (an
// uncontended Compute or Sleep) continues without any switch at all.
type Sim struct {
	cur   Time
	seq   uint64
	pq    eventQueue
	nodes map[NodeID]*Node
	net   NetConfig
	rnd   *rand.Rand

	// next is the successor named by the last wakeup event: the running
	// coroutine yields and the driver loop it returns to resumes next.
	next    *Proc
	stopped bool

	free []*simProcState // pooled idle workers
	all  []*simProcState // every worker ever created, for Shutdown

	// probe, when set, observes every popped event (scheduler tests).
	probe func(at Time, seq uint64, kind uint8)

	// Stats observable by harnesses: packets delivered and dropped, events
	// popped (no-op expiries included) and process parks.
	Delivered uint64
	Dropped   uint64
	Events    uint64
	Parks     uint64
}

type simProcState struct {
	p  *Proc
	fn func(*Proc)
	// Message deliveries dispatch through the node's handler with the
	// from/msg pair stored here, avoiding a closure per packet.
	hnode *Node
	hfrom NodeID
	hmsg  any

	// The worker's coroutine. resume switches into it and returns when it
	// yields; yield suspends it back to whichever driver loop resumed it and
	// returns false once stop has been called; stop unwinds it.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// NewSim creates a simulator seeded for deterministic execution.
func NewSim(seed int64) *Sim {
	s := &Sim{
		nodes: make(map[NodeID]*Node),
		rnd:   rand.New(rand.NewSource(seed)),
		net:   DefaultNetConfig(),
	}
	return s
}

// Now returns the virtual clock.
func (s *Sim) Now() Time { return s.cur }

// Net returns the mutable network configuration.
func (s *Sim) Net() *NetConfig { return &s.net }

// AddNode registers a node. Registering an existing id replaces its handler
// and core count (used when a crashed server restarts).
func (s *Sim) AddNode(id NodeID, cfg NodeConfig) *Node {
	n := s.nodes[id]
	if n == nil {
		n = &Node{ID: id}
		s.nodes[id] = n
	}
	n.h = cfg.Handler
	if cfg.Cores > 0 {
		n.cores = NewSemaphore(cfg.Cores)
	} else {
		n.cores = nil
	}
	n.down = false
	return n
}

// Node returns a registered node or nil.
func (s *Sim) Node(id NodeID) *Node { return s.nodes[id] }

// Spawn starts a process on the given node at the current virtual time.
func (s *Sim) Spawn(node NodeID, fn func(*Proc)) {
	n := s.nodes[node]
	if n == nil {
		panic("env: Spawn on unregistered node")
	}
	s.newProc(n, fn)
}

// After schedules fn to run once after d. fn runs in a non-process context
// and must not block on primitives.
func (s *Sim) After(d Duration, fn func()) *Timer {
	t := &Timer{s: s, fn: fn}
	t.ev = s.push(d, event{kind: evTimer, msg: t})
	return t
}

// SpawnAfter schedules fn to start on node after d of virtual time without
// holding a goroutine in the meantime: the continuation is carried by a
// queued event and dispatches on a pooled worker when it fires. This is the
// O(1)-memory idle-session shape — a session that would otherwise sleep on a
// parked goroutine between operations re-queues its next step instead, so a
// million idle clients cost a million queued events, not a million stacks.
// The pool only ever grows to the number of *concurrently running* bodies.
// If the node is down when the event fires, the continuation is dropped
// (the session dies with its node, like a delivery to a crashed node).
func (s *Sim) SpawnAfter(node NodeID, d Duration, fn func(*Proc)) {
	if s.nodes[node] == nil {
		panic("env: SpawnAfter on unregistered node")
	}
	s.push(d, event{kind: evSpawn, to: node, msg: fn})
}

// WorkerCount reports how many pooled worker coroutines have been created so
// far: the peak concurrent-body count of the run, and the figure harnesses'
// witness that parked sessions are not holding stacks.
func (s *Sim) WorkerCount() int { return len(s.all) }

// push enqueues ev at cur+d with the next insertion sequence number and
// returns the reference that removes it.
func (s *Sim) push(d Duration, ev event) evRef {
	if d < 0 {
		d = 0
	}
	ev.at = s.cur + d
	s.seq++
	ev.seq = s.seq
	return evRef{slot: s.pq.push(ev), seq: ev.seq}
}

// schedWake schedules proc p (currently transitioning to state `want`) to
// run after d, with no allocation.
func (s *Sim) schedWake(p *Proc, d Duration, want int) {
	s.push(d, event{kind: evWake, p: p, aux: uint64(want)})
}

func (s *Sim) randJitter(j Duration) Duration {
	if j <= 0 {
		return 0
	}
	return Duration(s.rnd.Int63n(int64(j)))
}

// deliver sends a message through the simulated network.
func (s *Sim) deliver(from, to NodeID, msg any, extraDelay Duration) {
	src := s.nodes[from]
	if src != nil && src.down {
		return // a crashed node emits nothing
	}
	drop, dup, delay := s.net.decide(from, to, msg, s)
	if drop {
		s.Dropped++
		return
	}
	n := 1
	if dup {
		n = 2
	}
	for i := 0; i < n; i++ {
		d := delay + extraDelay
		if i > 0 {
			d += s.randJitter(s.net.Latency) // duplicates trail the original
		}
		s.push(d, event{kind: evDeliver, from: from, to: to, msg: msg})
	}
}

// dispatchDeliver hands a delivered message to the destination's handler on
// a pooled process.
func (s *Sim) dispatchDeliver(ev *event) {
	dst := s.nodes[ev.to]
	if dst == nil || dst.down || dst.h == nil {
		s.Dropped++
		return
	}
	s.Delivered++
	st := s.takeWorker()
	st.p.node = dst
	st.p.tctx = TraceCtx{} // pooled worker: no ambient trace leaks across dispatches
	st.hnode = dst
	st.hfrom = ev.from
	st.hmsg = ev.msg
	st.p.state = stateDispatched
	s.schedWake(st.p, 0, stateDispatched)
}

// newProc dispatches fn on a pooled worker, scheduled immediately.
func (s *Sim) newProc(node *Node, fn func(*Proc)) {
	st := s.takeWorker()
	st.p.node = node
	st.p.tctx = TraceCtx{}
	st.fn = fn
	st.p.state = stateDispatched
	s.schedWake(st.p, 0, stateDispatched)
}

// takeWorker pops a pooled worker or starts a fresh one.
func (s *Sim) takeWorker() *simProcState {
	if k := len(s.free); k > 0 {
		st := s.free[k-1]
		s.free = s.free[:k-1]
		return st
	}
	st := &simProcState{}
	st.p = &Proc{env: s, co: st}
	st.resume, st.stop = iter.Pull(func(yield func(struct{}) bool) {
		st.yield = yield
		s.workerLoop(st)
	})
	s.all = append(s.all, st)
	return st
}

// Proc lifecycle states (diagnostics for the scheduler invariants).
const (
	stateIdle = iota
	stateDispatched
	stateRunning
	stateParked
)

// workerLoop is the body of a pooled worker coroutine; it starts on the
// worker's first dispatch.
func (s *Sim) workerLoop(st *simProcState) {
	defer func() {
		// A killed worker unwinds with killSentinel; anything else is a real
		// bug and surfaces, through the driver loop that resumed it, out of Run.
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r)
			}
		}
	}()
	for {
		if st.p.state != stateRunning {
			panic(fmt.Sprintf("env: worker resumed in state %d", st.p.state))
		}
		switch {
		case st.hnode != nil:
			n, from, msg := st.hnode, st.hfrom, st.hmsg
			st.hnode, st.hmsg = nil, nil
			if n.h != nil {
				n.h(st.p, from, msg)
			}
		case st.fn != nil:
			fn := st.fn
			st.fn = nil
			fn(st.p)
		default:
			panic("env: worker dispatched with no function")
		}
		if st.p.replyHeld {
			panic("env: dispatch returned holding its reply slot")
		}
		st.p.state = stateIdle
		s.free = append(s.free, st)
		// Keep the simulation moving until this worker is dispatched again.
		s.loop(st.p)
	}
}

type killSentinel struct{}

// pop takes the next event off the queue and advances the clock to it.
func (s *Sim) pop() event {
	ev := s.pq.pop()
	s.Events++
	if ev.at > s.cur {
		s.cur = ev.at
	}
	if s.probe != nil {
		s.probe(ev.at, ev.seq, ev.kind)
	}
	return ev
}

// runLoop is the driver side of the scheduler: it drains the event queue and
// resumes each named successor until the simulation stops or runs dry. Run
// invocations nest when a process body drives a nested session: the inner
// loop then runs on that process's coroutine and resumes others from there.
func (s *Sim) runLoop() {
	for {
		if p := s.next; p != nil {
			s.next = nil
			p.co.resume() // returns when the running coroutine yields
		} else if s.stopped || s.pq.Len() == 0 {
			return
		} else {
			ev := s.pop()
			s.exec(&ev)
		}
	}
}

// loop is the process side: it drains events while `me` (parking, or a
// pooled worker awaiting redispatch) is the running coroutine, and returns
// once me is made runnable again — inline, with no switch, when me's own
// wakeup is popped here; otherwise after yielding to the driver (a successor
// was named, or the simulation stopped or ran dry) and being resumed.
func (s *Sim) loop(me *Proc) {
	for s.next == nil && !s.stopped && s.pq.Len() > 0 {
		ev := s.pop()
		if ev.kind == evWake && ev.p == me {
			s.wake(me, ev.aux)
			return // the park/dispatch completes inline
		}
		s.exec(&ev)
	}
	if !me.co.yield(struct{}{}) {
		panic(killSentinel{}) // Shutdown: unwind the process body
	}
	if me.state != stateRunning {
		panic(fmt.Sprintf("env: park resumed in state %d", me.state))
	}
}

// wake marks p, which must be in state want, running.
func (s *Sim) wake(p *Proc, want uint64) {
	if p.state != int(want) {
		panic(fmt.Sprintf("env: scheduling a proc in state %d, want %d", p.state, want))
	}
	p.state = stateRunning
}

// exec performs one event. A wakeup names its process the successor
// (s.next); everything else completes inline.
func (s *Sim) exec(ev *event) {
	switch ev.kind {
	case evTimer:
		ev.msg.(*Timer).fire(ev.seq)
	case evTimeout:
		s.fireTimeout(ev)
	case evDeliver:
		s.dispatchDeliver(ev)
	case evSpawn:
		if n := s.nodes[ev.to]; n != nil && !n.down {
			s.newProc(n, ev.msg.(func(*Proc)))
		}
	case evWake:
		s.wake(ev.p, ev.aux)
		s.next = ev.p
	}
}

// fireTimeout expires a Future wait unless the wait already completed (the
// expiry is stale or the future found its value).
func (s *Sim) fireTimeout(ev *event) {
	p, f := ev.p, ev.msg.(*Future)
	if p.tw.seq != ev.seq {
		return // the wait already ended; this expiry could not be unlinked
	}
	if f.done || !f.leave(p) {
		return
	}
	p.timedOut = true
	s.unpark(p)
}

// park is called from a running process to hand control back to the
// scheduler until unparked. The parking process itself drives the event
// loop, so its own wakeup, when next, proceeds without a switch.
func (p *Proc) park() {
	p.env.Parks++
	p.state = stateParked
	p.env.loop(p)
}

// unpark makes a parked process runnable at the current virtual time.
func (s *Sim) unpark(p *Proc) {
	s.schedWake(p, 0, stateParked)
}

// Run executes events until the queue drains or Stop is called. It returns
// the virtual time reached. A Stop from an earlier Run does not carry over.
func (s *Sim) Run() Time {
	s.stopped = false
	s.runLoop()
	return s.cur
}

// RunFor executes events for d of virtual time, then stops (leaving pending
// events queued). It returns the virtual time reached.
func (s *Sim) RunFor(d Duration) Time {
	s.After(d, func() { s.stopped = true })
	return s.Run()
}

// Stop halts Run after the current event.
func (s *Sim) Stop() { s.stopped = true }

// Shutdown kills every live process so the worker coroutines exit: stop makes
// a parked worker's yield return false, which unwinds its body (deferred
// calls run), and ends a worker that never started before it does. The
// simulation must not be Run again afterwards. Benchmarks call Shutdown after
// every configuration so parked processes do not accumulate across runs, and
// a harness that keeps the Sim reachable keeps neither its idle workers nor
// its event queue (slab, heaps and the messages still queued).
func (s *Sim) Shutdown() {
	s.stopped = true
	// By index: an unwinding body's deferred calls may dispatch new workers.
	for i := 0; i < len(s.all); i++ {
		s.all[i].stop()
	}
	s.free = nil
	s.pq = eventQueue{}
}
