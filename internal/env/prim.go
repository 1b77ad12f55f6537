package env

import "sync"

// The blocking primitives below behave identically under Sim and Real: FIFO
// wakeup order, lock handoff to the head waiter, and timeout support where
// the protocol needs it. Under Sim only one process runs at a time, so the
// internal sync.Mutex fields are uncontended; under Real they provide the
// actual mutual exclusion.

// Future is a one-shot mailbox: at most one process waits for a value that
// is completed at most once (duplicate completions are ignored — exactly what
// a retransmitting RPC layer needs).
type Future struct {
	mu     sync.Mutex
	done   bool
	val    any
	waiter *Proc
}

// NewFuture allocates an incomplete future.
func NewFuture() *Future { return &Future{} }

// Complete delivers the value and wakes the waiter, if any. Later calls are
// no-ops.
func (f *Future) Complete(v any) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.done = true
	f.val = v
	w := f.waiter
	f.waiter = nil
	f.mu.Unlock()
	if w != nil {
		w.env.unpark(w)
	}
}

// Done reports completion without blocking.
func (f *Future) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Wait blocks p until the future completes and returns the value.
func (f *Future) Wait(p *Proc) any {
	f.mu.Lock()
	if f.done {
		v := f.val
		f.mu.Unlock()
		return v
	}
	f.waiter = p
	f.mu.Unlock()
	p.park()
	f.mu.Lock()
	v := f.val
	f.mu.Unlock()
	return v
}

// WaitTimeout blocks p until completion or until d elapses. ok is false on
// timeout.
func (f *Future) WaitTimeout(p *Proc, d Duration) (v any, ok bool) {
	f.mu.Lock()
	if f.done {
		v = f.val
		f.mu.Unlock()
		return v, true
	}
	f.waiter = p
	f.mu.Unlock()
	if s, sim := p.env.(*Sim); sim {
		// Under Sim the expiry is a plain queue event guarded by the
		// proc's timeout generation — no Timer or closure per wait.
		p.twGen++
		s.schedTimeout(p, f, d, p.twGen)
		p.park()
		p.twGen++ // cancel: a pending expiry event is now stale
	} else {
		t := p.env.sched(d, func() {
			f.mu.Lock()
			if f.done || f.waiter != p {
				f.mu.Unlock()
				return
			}
			f.waiter = nil
			f.mu.Unlock()
			p.timedOut = true
			p.env.unpark(p)
		})
		p.park()
		t.Cancel()
	}
	if p.timedOut {
		p.timedOut = false
		return nil, false
	}
	f.mu.Lock()
	v = f.val
	f.mu.Unlock()
	return v, true
}

// Mutex is a FIFO lock with handoff semantics: Unlock passes ownership to the
// longest-waiting process. This models the lock queues of the paper's
// servers (and is exactly the service discipline the simulator needs for
// faithful contention behaviour).
type Mutex struct {
	mu sync.Mutex
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
	m.mu.Lock()
	if !m.held {
		m.held = true
		m.mu.Unlock()
		return
	}
	m.q = append(m.q, p)
	m.mu.Unlock()
	p.park()
}

// TryLock acquires the lock if it is free.
func (m *Mutex) TryLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Unlock releases the lock, handing it to the head waiter if any. Unlock may
// be called from a different process than the one that locked — the protocol
// uses this when a switch multicast tells the committing server to release
// its locks (§5.2.1 step 7b).
func (m *Mutex) Unlock() {
	m.mu.Lock()
	if len(m.q) > m.head {
		var w *Proc
		w, m.q, m.head = popWaiter(m.q, m.head)
		m.mu.Unlock()
		w.env.unpark(w)
		return
	}
	if !m.held {
		m.mu.Unlock()
		panic("env: Unlock of unlocked Mutex")
	}
	m.held = false
	m.mu.Unlock()
}

// Held reports whether the mutex is currently held (diagnostics only).
func (m *Mutex) Held() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held
}

// Cond is a condition variable usable with Mutex.
type Cond struct {
	mu sync.Mutex
	q  []*Proc
}

// Wait atomically releases m, blocks p, and re-acquires m before returning.
//
//detlint:lock-escapes the condition-variable contract returns with m re-acquired; the caller releases it
func (c *Cond) Wait(p *Proc, m *Mutex) {
	c.mu.Lock()
	c.q = append(c.q, p)
	c.mu.Unlock()
	m.Unlock()
	p.park()
	m.Lock(p)
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	q := c.q
	c.q = nil
	c.mu.Unlock()
	for _, w := range q {
		w.env.unpark(w)
	}
}

// Signal wakes one waiter.
func (c *Cond) Signal() {
	c.mu.Lock()
	var w *Proc
	if len(c.q) > 0 {
		w = c.q[0]
		c.q = c.q[1:]
	}
	c.mu.Unlock()
	if w != nil {
		w.env.unpark(w)
	}
}

// Semaphore is a counting resource with FIFO queuing: the model of a
// server's CPU cores (§7.1 "each metadata server uses four cores").
type Semaphore struct {
	mu    sync.Mutex
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
	s.mu.Lock()
	s.avail += n - s.limit
	s.limit = n
	var wake []*Proc
	for s.avail > 0 && len(s.q) > s.head {
		var w *Proc
		w, s.q, s.head = popWaiter(s.q, s.head)
		wake = append(wake, w)
		s.avail--
	}
	s.mu.Unlock()
	for _, w := range wake {
		w.env.unpark(w)
	}
}

// Acquire takes one permit, blocking FIFO.
func (s *Semaphore) Acquire(p *Proc) {
	s.mu.Lock()
	if s.avail > 0 {
		s.avail--
		s.mu.Unlock()
		return
	}
	s.q = append(s.q, p)
	s.mu.Unlock()
	p.park()
}

// Release returns one permit, handing it to the head waiter if any. While a
// SetLimit shrink is over-committed (avail < 0) the permit is absorbed to pay
// the deficit down instead of being handed off.
func (s *Semaphore) Release() {
	s.mu.Lock()
	if s.avail >= 0 && len(s.q) > s.head {
		var w *Proc
		w, s.q, s.head = popWaiter(s.q, s.head)
		s.mu.Unlock()
		w.env.unpark(w)
		return
	}
	s.avail++
	s.mu.Unlock()
}

// Sleep suspends the process for d without consuming CPU.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	if s, ok := p.env.(*Sim); ok {
		// Schedule the wakeup directly: no Timer, no closure, and — when
		// no other event intervenes — no coroutine switch either.
		s.schedWake(p, d, stateParked)
		p.park()
		return
	}
	p.env.sched(d, func() { p.env.unpark(p) })
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
func (f *Future) Peek() (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.val, f.done
}
