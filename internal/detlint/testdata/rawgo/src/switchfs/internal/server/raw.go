package server

import (
	"sync"
	"sync/atomic"
)

type waiter struct {
	mu sync.Mutex     // want `sync.Mutex in a simulator-scheduled package`
	wg sync.WaitGroup // want `sync.WaitGroup in a simulator-scheduled package`
}

type table struct {
	lk sync.RWMutex // want `sync.RWMutex in a simulator-scheduled package`
}

var cv sync.Cond // want `sync.Cond in a simulator-scheduled package`

func spawnRaw(f func()) {
	go f() // want `go statement in a simulator-scheduled package`
}

func chanOps(c chan int) int { // want `channel type in a simulator-scheduled package`
	c <- 1     // want `channel send in a simulator-scheduled package`
	return <-c // want `channel receive in a simulator-scheduled package`
}

func selectOn(c chan int) { // want `channel type in a simulator-scheduled package`
	select { // want `select in a simulator-scheduled package`
	case <-c: // want `channel receive in a simulator-scheduled package`
	}
}

func drain(c chan int) int { // want `channel type in a simulator-scheduled package`
	n := 0
	for v := range c { // want `range over channel in a simulator-scheduled package`
		n += v
	}
	return n
}

// bump uses sync/atomic, which stays legal: no park, no observable ordering.
var hits int64

func bump() { atomic.AddInt64(&hits, 1) }
