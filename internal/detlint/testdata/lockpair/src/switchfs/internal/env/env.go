// Package env stubs the simulator runtime for the lockpair testdata: the
// analyzer keys on the Lock/RLock/Acquire and Unlock/RUnlock/Release methods
// of the Mutex, RWMutex and Semaphore types at this import path.
package env

// NodeID identifies a simulated node.
type NodeID uint32

// Proc is a stub of the simulator process handle.
type Proc struct{}

func (p *Proc) Send(to NodeID, msg any)           {}
func (p *Proc) Spawn(name string, fn func(*Proc)) {}

// Mutex is a stub of the FIFO-handoff sim mutex.
type Mutex struct{}

func (m *Mutex) Lock(p *Proc)         {}
func (m *Mutex) TryLock(p *Proc) bool { return true }
func (m *Mutex) Unlock()              {}

// RWMutex is a stub of the sim reader-writer lock.
type RWMutex struct{}

func (m *RWMutex) Lock(p *Proc)  {}
func (m *RWMutex) RLock(p *Proc) {}
func (m *RWMutex) Unlock()       {}
func (m *RWMutex) RUnlock()      {}

// Semaphore is a stub of the sim counting semaphore.
type Semaphore struct{}

func (s *Semaphore) Acquire(p *Proc) {}
func (s *Semaphore) Release()        {}
