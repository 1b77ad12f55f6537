package env

import (
	"math/rand"
	"testing"
)

// Layer microbenchmarks of the bare simulator (no cluster): `make
// bench-layers`. ns/op is per pop+push, per sleep, per message, per timer.

// BenchmarkEventQueue: the queue alone in steady state — 1 000 events live,
// each op pops the earliest and pushes one drawn from the simulator's delay
// mix. retained-B is the slab the queue holds at the end (slots × 64 B): it
// follows the 1 000 live events, not the b.N that passed through.
func BenchmarkEventQueue(b *testing.B) {
	delays := simDelays(rand.New(rand.NewSource(1)), 1<<12)
	var q eventQueue
	var cur Time
	var seq uint64
	push := func() {
		seq++
		q.push(event{at: cur + delays[seq%uint64(len(delays))], seq: seq})
	}
	for q.Len() < 1000 {
		push()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur = q.pop().at
		push()
	}
	b.ReportMetric(float64(len(q.chunks)*chunkSize*64), "retained-B")
}

// BenchmarkSimHandoff: 256 processes sleeping in lockstep, so every wakeup
// belongs to another process — one handoff per op.
func BenchmarkSimHandoff(b *testing.B) {
	const procs = 256
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	sleeps := b.N/procs + 1
	for i := 0; i < procs; i++ {
		s.Spawn(1, func(p *Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkSimSend: one sender, one handler that returns at once — the cost
// of a delivery event plus dispatching a pooled worker for it.
func BenchmarkSimSend(b *testing.B) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	got := 0
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { got++ }})
	msg := &struct{}{}
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Send(2, msg)
			if i%64 == 63 {
				p.Sleep(Microsecond) // let deliveries drain; bounds the queue
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkSimTimer: schedule and fire After callbacks spread over 1 ms.
func BenchmarkSimTimer(b *testing.B) {
	s := NewSim(1)
	defer s.Shutdown()
	fired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Duration(i%1000)*Microsecond, func() { fired++ })
	}
	s.Run()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkWaitTimeoutAnswered: the RPC shape — a 2 ms WaitTimeout that a
// peer answers 1 µs later, so every expiry is cancelled. slots is the
// queue's slot high-water mark: the expiries still held at once, which would
// be 2 000 if answered waits left theirs queued until they fired.
func BenchmarkWaitTimeoutAnswered(b *testing.B) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var f Future
	answered := 0
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			f = Future{}
			if _, ok := f.WaitTimeout(p, 2*Millisecond); ok {
				answered++
			}
		}
	})
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
			f.Complete(nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if answered != b.N {
		b.Fatalf("answered %d of %d", answered, b.N)
	}
	b.ReportMetric(float64(s.pq.top), "slots")
}

// BenchmarkTimerReset: the idle-push shape — one 200 µs timer re-armed every
// 1 µs, firing once at the end. Re-arming reuses the Timer and unlinks its
// pending event, so the queue holds one timer event whatever b.N is.
func BenchmarkTimerReset(b *testing.B) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	fired := 0
	tm := s.After(200*Microsecond, func() { fired++ })
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			tm.Reset(200 * Microsecond)
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if fired != 1 {
		b.Fatalf("fired %d times, want once", fired)
	}
	b.ReportMetric(float64(s.pq.top), "slots")
}
