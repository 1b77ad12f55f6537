// Package server exercises lockpair: every sim lock acquired must be
// released on every return path, through a defer, a branch, a releasing
// closure or a releasing helper — or the function declares the handoff with
// //detlint:lock-escapes. The canonical positive case is the PR 5 2PC shape:
// a prepare handler that gives up (duplicate, ancestor conflict) and returns
// with the key locks still held.
package server

import "switchfs/internal/env"

// keyLock mirrors the 2PC per-key lock record in internal/server/txn.go.
type keyLock struct {
	lock env.Mutex
}

type Server struct {
	renameMu env.Mutex
	statesMu env.RWMutex
}

func work() {}

// deferred releases through a defer: clean.
func (s *Server) deferred(p *env.Proc) {
	s.renameMu.Lock(p)
	defer s.renameMu.Unlock()
	work()
}

// branches releases explicitly on both paths: clean.
func (s *Server) branches(p *env.Proc, ok bool) {
	s.renameMu.Lock(p)
	if ok {
		s.renameMu.Unlock()
		return
	}
	work()
	s.renameMu.Unlock()
}

// prepareGiveUp is the PR 5 lock-leak shape: the duplicate-prepare branch
// returns without releasing the key lock it just took, wedging every later
// transaction on that key.
func (s *Server) prepareGiveUp(p *env.Proc, kl *keyLock, dup bool) {
	kl.lock.Lock(p) // want `still held on a return path`
	if dup {
		return // gave up without abort
	}
	work()
	kl.lock.Unlock()
}

// acquireLeak leaks a semaphore slot on the failure path.
func (s *Server) acquireLeak(p *env.Proc, sem *env.Semaphore, fail bool) bool {
	sem.Acquire(p) // want `still held on a return path`
	if fail {
		return false
	}
	sem.Release()
	return true
}

// mixedMode takes the lock in a branch-selected mode and releases in the
// same shape: Lock/RLock and Unlock/RUnlock pair as one class, so the
// path-insensitive check stays clean.
func (s *Server) mixedMode(p *env.Proc, write bool) {
	if write {
		s.statesMu.Lock(p)
	} else {
		s.statesMu.RLock(p)
	}
	work()
	if write {
		s.statesMu.Unlock()
	} else {
		s.statesMu.RUnlock()
	}
}

// closureRelease releases through a local closure on the failure path (the
// handleMutate fail-closure pattern): clean.
func (s *Server) closureRelease(p *env.Proc, kl *keyLock, bad bool) {
	kl.lock.Lock(p)
	fail := func() {
		kl.lock.Unlock()
	}
	if bad {
		fail()
		return
	}
	work()
	kl.lock.Unlock()
}

// closureHelperRelease releases through a local closure that calls a
// releasing helper (the handleMutate fail-closure over unlockKey): clean.
func (s *Server) closureHelperRelease(p *env.Proc, kl *keyLock, bad bool) {
	kl.lock.Lock(p)
	fail := func() {
		finish(kl)
	}
	if bad {
		fail()
		return
	}
	work()
	kl.lock.Unlock()
}

// helperRelease hands the lock to a same-package helper that releases its
// parameter (the syncCommit pattern): clean.
func (s *Server) helperRelease(p *env.Proc, kl *keyLock) {
	kl.lock.Lock(p)
	finish(kl)
}

func finish(kl *keyLock) {
	work()
	kl.lock.Unlock()
}

// lockAll pairs acquire and release inside the loop body: clean.
func (s *Server) lockAll(p *env.Proc, keys []*keyLock) {
	for _, l := range keys {
		l.lock.Lock(p)
		work()
		l.lock.Unlock()
	}
}

// lockTxnKeys intentionally returns holding every key lock: the locks
// transfer to the prepared-transaction record and are released by the
// decision handler. The annotation declares the handoff.
//
//detlint:lock-escapes locks transfer to the prepared-txn record; handleTxnDecision releases them
func (s *Server) lockTxnKeys(p *env.Proc, keys []*keyLock) {
	for _, l := range keys {
		l.lock.Lock(p)
	}
}

// spawnLeak acquires inside a spawned process body and never releases: the
// literal has its own pairing obligation.
func (s *Server) spawnLeak(p *env.Proc) {
	p.Spawn("w", func(q *env.Proc) {
		s.renameMu.Lock(q) // want `still held on a return path`
	})
}

// suppressed documents an intentional cross-process unlock at the site.
func (s *Server) suppressed(p *env.Proc, parked bool) {
	s.renameMu.Lock(p) //detlint:ignore lockpair -- the ack handler running on another process unlocks after the commit ack
	if parked {
		return
	}
	s.renameMu.Unlock()
}
