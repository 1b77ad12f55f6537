package workload

import (
	"fmt"

	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/stats"
)

// OpenCfg configures an open-loop run: a population of sessions that each
// issue one operation, think for Think of virtual time, and repeat. Unlike
// the closed loop (Run), a session costs no goroutine while thinking — its
// continuation is parked on the simulator's event queue (env.SpawnAfter) —
// so the population can scale to millions while the worker pool stays at the
// in-flight level (roughly Sessions × service-time / Think).
type OpenCfg struct {
	// Sessions is the live client-session population.
	Sessions int
	// OpsPerSession bounds each session's operation count.
	OpsPerSession int
	// Clients is the client-node pool sessions are spread over.
	Clients int
	// Think is the virtual idle time between a session's operations. Session
	// starts are staggered across one think window so arrivals spread evenly.
	Think env.Duration
	// Seed makes generation deterministic.
	Seed int64
	Gen  Gen
}

// OpenResult aggregates an open-loop run.
type OpenResult struct {
	Ops  int
	Errs int
	// Elapsed is first-issue to last-completion; Drained additionally covers
	// deferred background work (change-log pushes and aggregations).
	Elapsed env.Duration
	Drained env.Duration
	// Lat holds operation latencies in nanoseconds.
	Lat *stats.Hist
	// Workers is the peak pooled-worker count — the simulator's witness that
	// idle sessions were not holding goroutine stacks.
	Workers int
}

// ThroughputOps returns sustained ops/second of virtual time over the
// drained window.
func (r OpenResult) ThroughputOps() float64 {
	d := r.Drained
	if d < r.Elapsed {
		d = r.Elapsed
	}
	if d <= 0 {
		return 0
	}
	return float64(r.Ops) / (float64(d) / 1e9)
}

// RunOpen executes an open-loop workload to completion on the simulator. The
// caller owns cluster construction and preloading. The system must expose
// client node ids (ClientID) so session continuations can be scheduled on
// their owning nodes.
func RunOpen(sim *env.Sim, sys fsapi.System, cfg OpenCfg) OpenResult {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Think <= 0 {
		cfg.Think = env.Millisecond
	}
	type nodeIDer interface {
		ClientID(i int) env.NodeID
	}
	ni, ok := sys.(nodeIDer)
	if !ok {
		panic("workload: system does not expose ClientID")
	}
	res := OpenResult{Lat: &stats.Hist{}}
	start := sim.Now()
	var end, drainedAt env.Time
	done := 0
	allDone := env.NewFuture()
	for w := 0; w < cfg.Sessions; w++ {
		w := w
		ci := w % cfg.Clients
		fs := sys.ClientFS(ci)
		node := ni.ClientID(ci)
		rnd := newRand(cfg.Seed + int64(w)*7919)
		i := 0
		var step func(p *env.Proc)
		step = func(p *env.Proc) {
			call := cfg.Gen(rnd, w, i)
			t0 := p.Now()
			err := Apply(p, fs, call)
			res.Lat.Add(float64(p.Now() - t0))
			res.Ops++
			if err != nil {
				res.Errs++
			}
			i++
			if i < cfg.OpsPerSession {
				sim.SpawnAfter(node, cfg.Think, step)
				return
			}
			done++
			if t := p.Now(); t > end {
				end = t
			}
			if done == cfg.Sessions {
				allDone.Complete(nil)
			}
		}
		sim.SpawnAfter(node, env.Duration(w)*cfg.Think/env.Duration(cfg.Sessions), step)
	}
	spawnOn(sim, sys, 0, func(p *env.Proc) {
		allDone.Wait(p)
		sys.Drain(p)
		drainedAt = p.Now()
	})
	sim.Run()
	if done != cfg.Sessions {
		panic(fmt.Sprintf("workload: only %d/%d sessions finished (simulation deadlock?)", done, cfg.Sessions))
	}
	res.Elapsed = end - start
	res.Drained = drainedAt - start
	res.Workers = sim.WorkerCount() //detlint:ignore dettaint -- pool high-water is a pure function of the seed under the token-passing scheduler (TestGate holds the scale figure's workers column to it)
	return res
}
