package env

import (
	"math/rand"
	"sync"
	"time"
)

// Real is the wall-clock environment: processes are goroutines, timers are
// time.AfterFunc, and messages are delivered through goroutines with optional
// injected latency. fsctl's ad-hoc commands run on Real; everything measured
// runs on Sim.
type Real struct {
	start time.Time
	mu    sync.Mutex
	nodes map[NodeID]*Node
	net   NetConfig
	rnd   *rand.Rand
	wg    sync.WaitGroup
}

// NewReal creates a wall-clock environment. By default the network adds no
// artificial latency: channel/goroutine scheduling is the network.
func NewReal() *Real {
	return &Real{
		start: time.Now(),
		nodes: make(map[NodeID]*Node),
		rnd:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Now returns nanoseconds since environment creation (monotonic).
func (r *Real) Now() Time { return Time(time.Since(r.start)) }
func (r *Real) now() Time { return r.Now() }

// Net returns the mutable network configuration.
func (r *Real) Net() *NetConfig { return &r.net }

// AddNode registers (or re-registers) a node.
func (r *Real) AddNode(id NodeID, cfg NodeConfig) *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.nodes[id]
	if n == nil {
		n = &Node{ID: id, env: r}
		r.nodes[id] = n
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
func (r *Real) Node(id NodeID) *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[id]
}

// Spawn starts a goroutine-backed process on the node.
func (r *Real) Spawn(node NodeID, fn func(*Proc)) {
	n := r.Node(node)
	if n == nil {
		panic("env: Spawn on unregistered node")
	}
	r.newProc(n, fn)
}

// After schedules a callback on the wall clock.
func (r *Real) After(d Duration, fn func()) *Timer { return r.sched(d, fn) }

func (r *Real) sched(d Duration, fn func()) *Timer {
	t := &Timer{fn: fn}
	at := time.AfterFunc(time.Duration(d), t.fire)
	t.stop = func() { at.Stop() }
	return t
}

func (r *Real) randFloat() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rnd.Float64()
}

func (r *Real) randJitter(j Duration) Duration {
	if j <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Duration(r.rnd.Int63n(int64(j)))
}

func (r *Real) deliver(from, to NodeID, msg any, extraDelay Duration) {
	src := r.Node(from)
	if src != nil && src.down {
		return
	}
	drop, dup, delay := r.net.decide(from, to, msg, r)
	if drop {
		return
	}
	n := 1
	if dup {
		n = 2
	}
	for i := 0; i < n; i++ {
		d := delay + extraDelay
		dispatch := func() {
			dst := r.Node(to)
			if dst == nil || dst.down || dst.h == nil {
				return
			}
			r.newProc(dst, func(p *Proc) { dst.h(p, from, msg) })
		}
		if d > 0 {
			r.sched(d, dispatch)
		} else {
			dispatch()
		}
	}
}

func (r *Real) newProc(node *Node, fn func(*Proc)) {
	p := &Proc{env: r, node: node, resume: make(chan struct{}, 1)}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn(p)
	}()
}

// unpark wakes a goroutine blocked in park.
func (r *Real) unpark(p *Proc) { p.resume <- struct{}{} }
