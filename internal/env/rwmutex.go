package env

// RWMutex is a FIFO reader–writer lock for processes. Waiters are served in
// arrival order (a writer blocks later readers), so writers cannot starve —
// the discipline of the paper's per-inode locks, where directory reads share
// while updates and aggregations exclude (§5.2.2).
type RWMutex struct {
	readers int  // active readers
	writer  bool // active writer
	q       []rwWaiter
}

type rwWaiter struct {
	p     *Proc
	write bool
}

// RLock blocks p until a shared read lock is held.
func (m *RWMutex) RLock(p *Proc) {
	if !m.writer && len(m.q) == 0 {
		m.readers++
		return
	}
	m.q = append(m.q, rwWaiter{p: p, write: false})
	p.park()
}

// RUnlock releases a read lock.
func (m *RWMutex) RUnlock() {
	m.readers--
	if m.readers < 0 {
		panic("env: RUnlock without RLock")
	}
	m.promote()
}

// Lock blocks p until the exclusive lock is held.
func (m *RWMutex) Lock(p *Proc) {
	if !m.writer && m.readers == 0 && len(m.q) == 0 {
		m.writer = true
		return
	}
	m.q = append(m.q, rwWaiter{p: p, write: true})
	p.park()
}

// Unlock releases the exclusive lock.
func (m *RWMutex) Unlock() {
	if !m.writer {
		panic("env: Unlock without Lock")
	}
	m.writer = false
	m.promote()
}

// promote grants the lock to the head of the queue — one writer, or the
// maximal run of readers — and unparks the new holders in queue order.
func (m *RWMutex) promote() {
	if m.writer || len(m.q) == 0 {
		return
	}
	if m.q[0].write {
		if m.readers == 0 {
			m.writer = true
			w := m.q[0].p
			m.q = m.q[1:]
			w.env.unpark(w)
		}
		return
	}
	for len(m.q) > 0 && !m.q[0].write {
		m.readers++
		w := m.q[0].p
		m.q = m.q[1:]
		w.env.unpark(w)
	}
}
