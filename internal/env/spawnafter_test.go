package env

import "testing"

// TestSpawnAfterRunsAtTime checks the continuation fires on the right node
// at the right virtual time.
func TestSpawnAfterRunsAtTime(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var at Time
	var node NodeID
	s.SpawnAfter(1, 250*Microsecond, func(p *Proc) {
		at = p.Now()
		node = p.Self()
	})
	s.Run()
	if at != 250*Microsecond || node != 1 {
		t.Fatalf("fired at %d on node %d", at, node)
	}
}

// TestSpawnAfterIdleSessionsShareWorkers is the O(1)-memory property: many
// sessions that each re-queue their next step via SpawnAfter (instead of
// sleeping on a parked goroutine) must be served by a handful of pooled
// workers, not one goroutine per session.
func TestSpawnAfterIdleSessionsShareWorkers(t *testing.T) {
	s := NewSim(3)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	const sessions = 5000
	const steps = 4
	done := 0
	for i := 0; i < sessions; i++ {
		var step func(*Proc)
		remaining := steps
		step = func(p *Proc) {
			p.Compute(Microsecond)
			remaining--
			if remaining == 0 {
				done++
				return
			}
			// Think for much longer than the body runs: the idle-session
			// shape.
			p.Env().SpawnAfter(1, Duration(sessions)*Microsecond, step)
		}
		// Arrivals one body-length apart, so only a handful of bodies ever
		// run concurrently even though thousands of sessions are live.
		s.SpawnAfter(1, Duration(i)*Microsecond, step)
	}
	s.Run()
	if done != sessions {
		t.Fatalf("completed %d sessions, want %d", done, sessions)
	}
	// Live sessions spend their time as queued events, not parked
	// goroutines, so the worker pool must stay tiny relative to the session
	// count.
	if wc := s.WorkerCount(); wc > 64 {
		t.Fatalf("worker pool grew to %d for %d event-queued sessions", wc, sessions)
	}
}

// TestSpawnAfterDownNodeDropsContinuation mirrors delivery semantics: a
// continuation destined for a crashed node is dropped.
func TestSpawnAfterDownNodeDropsContinuation(t *testing.T) {
	s := NewSim(5)
	defer s.Shutdown()
	n := s.AddNode(1, NodeConfig{})
	ran := false
	s.SpawnAfter(1, 10, func(p *Proc) { ran = true })
	n.SetDown(true)
	s.Run()
	if ran {
		t.Fatal("continuation ran on a down node")
	}
}

// TestSpawnAfterDeterministic interleaves SpawnAfter continuations with
// regular processes and messages; two same-seed runs must match exactly.
func TestSpawnAfterDeterministic(t *testing.T) {
	run := func() []Time {
		s := NewSim(11)
		defer s.Shutdown()
		s.Net().Jitter = 300
		var times []Time
		s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) {
			times = append(times, p.Now())
		}})
		s.AddNode(1, NodeConfig{})
		for i := 0; i < 16; i++ {
			var step func(*Proc)
			n := 3
			step = func(p *Proc) {
				p.Send(2, n)
				n--
				if n > 0 {
					p.Env().SpawnAfter(1, 700, step)
				}
			}
			s.SpawnAfter(1, Duration(i*13), step)
		}
		s.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != 48 || len(b) != 48 {
		t.Fatalf("deliveries %d/%d, want 48", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}
