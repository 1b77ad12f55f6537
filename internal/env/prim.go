package env

// The blocking primitives below give protocol code FIFO wakeup order, lock
// handoff to the head waiter, and timeout support where the protocol needs
// it. Only one process runs at a time, so their state is plain fields: a
// method body runs to its next park without interleaving.

// Future is a one-shot mailbox: a value completed at most once (duplicate
// completions are ignored — exactly what a retransmitting RPC layer needs).
// Any number of processes may Wait or WaitTimeout for it, and Complete wakes
// them in the order they came; an expired WaitTimeout leaves the others
// waiting.
type Future struct {
	done bool
	val  any
	// waiter heads the waiters; the later ones queue through nextWaiter.
	waiter *Proc
}

// NewFuture allocates an incomplete future.
func NewFuture() *Future { return &Future{} }

// Complete delivers the value and wakes the waiter, if any. Later calls are
// no-ops.
func (f *Future) Complete(v any) {
	if f.done {
		return
	}
	f.done = true
	f.val = v
	w := f.waiter
	f.waiter = nil
	for w != nil {
		next := w.nextWaiter
		w.nextWaiter = nil
		w.env.unpark(w)
		w = next
	}
}

// Done reports completion without blocking.
func (f *Future) Done() bool { return f.done }

// Wait blocks p until the future completes and returns the value.
func (f *Future) Wait(p *Proc) any {
	if !f.done {
		f.join(p)
		p.park()
	}
	return f.val
}

// join queues p behind the waiters.
func (f *Future) join(p *Proc) {
	at := &f.waiter
	for *at != nil {
		at = &(*at).nextWaiter
	}
	*at = p
}

// leave takes p out of the waiters, reporting whether it was one.
func (f *Future) leave(p *Proc) bool {
	for at := &f.waiter; *at != nil; at = &(*at).nextWaiter {
		if *at == p {
			*at, p.nextWaiter = p.nextWaiter, nil
			return true
		}
	}
	return false
}

// WaitTimeout blocks p until completion or until d elapses. ok is false on
// timeout.
func (f *Future) WaitTimeout(p *Proc, d Duration) (v any, ok bool) {
	if f.done {
		return f.val, true
	}
	f.join(p)
	// The expiry is a plain queue event, recognised by its sequence number —
	// no Timer or closure per wait.
	p.tw = p.env.push(d, event{kind: evTimeout, p: p, msg: f})
	p.park()
	tw := p.tw
	p.tw = evRef{}
	if p.timedOut {
		p.timedOut = false
		return nil, false
	}
	// Answered in time: the expiry leaves the queue, or — already in the
	// current bucket's heap — fires as a no-op.
	p.env.pq.remove(tw)
	return f.val, true
}

// Mutex is a FIFO lock with handoff semantics: Unlock passes ownership to the
// longest-waiting process. This models the lock queues of the paper's
// servers (and is exactly the service discipline the simulator needs for
// faithful contention behaviour).
type Mutex struct {
	// held and the FIFO wait queue. The queue dequeues by advancing head —
	// shifting the slice per handoff cost O(queue) per unlock, which went
	// quadratic under the deep lock queues the simulation exists to model.
	held bool
	q    []*Proc
	head int
}

// popWaiter dequeues the head of a proc FIFO in amortized O(1).
func popWaiter(q []*Proc, head int) (*Proc, []*Proc, int) {
	w := q[head]
	q[head] = nil
	head++
	if head == len(q) {
		q = q[:0]
		head = 0
	} else if head >= 64 && head*2 >= len(q) {
		n := copy(q, q[head:])
		q = q[:n]
		head = 0
	}
	return w, q, head
}

// Lock blocks p until the lock is acquired.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	m.q = append(m.q, p)
	p.park()
}

// Unlock releases the lock, handing it to the head waiter if any. Unlock may
// be called from a different process than the one that locked — the protocol
// uses this when a switch multicast tells the committing server to release
// its locks (§5.2.1 step 7b).
func (m *Mutex) Unlock() {
	if len(m.q) > m.head {
		var w *Proc
		w, m.q, m.head = popWaiter(m.q, m.head)
		w.env.unpark(w)
		return
	}
	if !m.held {
		panic("env: Unlock of unlocked Mutex")
	}
	m.held = false
}

// Semaphore is a counting resource with FIFO queuing: the model of a
// server's CPU cores (§7.1 "each metadata server uses four cores").
type Semaphore struct {
	avail int
	limit int
	q     []*Proc
	head  int
}

// NewSemaphore returns a semaphore with n permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{avail: n, limit: n} }

// SetLimit resizes the permit count to n (gray failures: a degraded node
// loses cores mid-run, then gets them back). Shrinking below the number of
// permits currently held drives avail negative; subsequent Releases are
// absorbed until the deficit clears. Growing wakes queued waiters.
func (s *Semaphore) SetLimit(n int) {
	s.avail += n - s.limit
	s.limit = n
	for s.avail > 0 && len(s.q) > s.head {
		var w *Proc
		w, s.q, s.head = popWaiter(s.q, s.head)
		s.avail--
		w.env.unpark(w)
	}
}

// Acquire takes one permit, blocking FIFO.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 {
		s.avail--
		return
	}
	s.q = append(s.q, p)
	p.park()
}

// Release returns one permit, handing it to the head waiter if any. While a
// SetLimit shrink is over-committed (avail < 0) the permit is absorbed to pay
// the deficit down instead of being handed off.
func (s *Semaphore) Release() {
	if s.avail >= 0 && len(s.q) > s.head {
		var w *Proc
		w, s.q, s.head = popWaiter(s.q, s.head)
		w.env.unpark(w)
		return
	}
	s.avail++
}

// Sleep suspends the process for d without consuming CPU.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	// Schedule the wakeup directly: no Timer, no closure, and — when no
	// other event intervenes — no coroutine switch either.
	p.env.schedWake(p, d, stateParked)
	p.park()
}

// Compute occupies one CPU core of the process's node for d: the modeled
// service time of a software section (request parsing, KV accesses, WAL
// appends). On nodes with Cores == 0 it is a pure delay; with d == 0 it is a
// no-op. CPU cores queue FIFO, which is what makes per-core throughput
// saturation and head-of-line blocking emerge in the simulation.
func (p *Proc) Compute(d Duration) {
	if d <= 0 {
		return
	}
	if p.node.cores == nil {
		p.Sleep(d)
		return
	}
	p.node.cores.Acquire(p)
	p.Sleep(d)
	p.node.cores.Release()
}

// Peek returns the value without blocking; ok is false if incomplete. Used
// by harness code inspecting results after a simulation drained.
func (f *Future) Peek() (any, bool) { return f.val, f.done }
