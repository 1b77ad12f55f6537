package env

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Tests of the coroutine scheduler core: the properties the driver loop and
// the iter.Pull workers must keep while every handoff bypasses the Go
// scheduler.

// TestRunReentrant drives a nested Run from inside a process body: the inner
// driver loop runs on that process's coroutine, resumes other processes from
// there, and returns to the body when the queue drains.
func TestRunReentrant(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var order []string
	mark := func(p *Proc, what string) { order = append(order, fmt.Sprintf("%s@%d", what, p.Now())) }
	s.Spawn(1, func(p *Proc) {
		mark(p, "outer:start")
		// Parked by the outer driver before the nested Run, resumed by the
		// nested one.
		s.Spawn(1, func(q *Proc) {
			q.Sleep(5 * Microsecond)
			mark(q, "sibling")
		})
		p.Sleep(Microsecond)
		s.Spawn(1, func(q *Proc) {
			mark(q, "inner:start")
			q.Sleep(10 * Microsecond)
			mark(q, "inner:end")
		})
		if end := s.Run(); end != 11*Microsecond {
			t.Errorf("nested Run returned at %d, want %d", end, 11*Microsecond)
		}
		mark(p, "outer:resumed")
		p.Sleep(Microsecond)
		mark(p, "outer:end")
	})
	if end := s.Run(); end != 12*Microsecond {
		t.Fatalf("Run returned at %d, want %d", end, 12*Microsecond)
	}
	want := "outer:start@0 inner:start@1000 sibling@5000 inner:end@11000 outer:resumed@11000 outer:end@12000"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order\n got %s\nwant %s", got, want)
	}
}

// TestShutdownReleasesEveryWorker covers the three places a worker can be
// when Shutdown arrives — parked inside a body, idle in the pool, dispatched
// but never started — and requires every coroutine to be gone afterwards.
func TestShutdownReleasesEveryWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSim(1)
	s.AddNode(1, NodeConfig{})
	forever := NewFuture()
	unwound := 0
	for i := 0; i < 20; i++ {
		s.Spawn(1, func(p *Proc) { // parked forever
			defer func() { unwound++ }()
			forever.Wait(p)
		})
		s.Spawn(1, func(p *Proc) { p.Sleep(Microsecond) }) // finishes: idle worker
	}
	s.Run()
	for i := 0; i < 20; i++ {
		s.Spawn(1, func(p *Proc) { t.Error("dispatched after the last Run, must never start") })
	}
	if wc := s.WorkerCount(); wc != 40 {
		t.Fatalf("WorkerCount=%d, want 40 (20 parked, 20 idle re-dispatched)", wc)
	}
	s.Spawn(1, func(p *Proc) { t.Error("fresh worker, must never start") })
	if runtime.NumGoroutine() <= before {
		t.Fatal("workers hold no goroutines: the test observes nothing")
	}
	s.Shutdown()
	if unwound != 20 {
		t.Fatalf("%d of 20 parked bodies ran their deferred calls", unwound)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before NewSim, %d after Shutdown", before, after)
	}
	s.Shutdown() // idempotent
}

// TestShutdownReleasesQueue: a Sim a harness still holds after Shutdown pins
// neither the events left in its queue nor the slab and heaps they were in.
func TestShutdownReleasesQueue(t *testing.T) {
	s := NewSim(1)
	for _, d := range []Duration{0, 3 * Microsecond, 2 * Millisecond, 40 * Millisecond} {
		s.After(d, func() {})
	}
	s.RunFor(Microsecond)
	if s.pq.Len() != 3 || s.pq.chunks == nil || len(s.pq.far) != 1 {
		t.Fatalf("before Shutdown: Len=%d chunks=%d far=%d, want 3 queued in slab and far heap",
			s.pq.Len(), len(s.pq.chunks), len(s.pq.far))
	}
	s.Shutdown()
	if q := &s.pq; q.Len() != 0 || q.chunks != nil || q.now != nil || q.far != nil || q.nRing != 0 {
		t.Fatalf("after Shutdown: Len=%d chunks=%d now=%d far=%d nRing=%d, want the zero queue",
			q.Len(), len(q.chunks), cap(q.now), cap(q.far), q.nRing)
	}
}

// TestStopThenPark stops the simulation from a process that parks right
// after: Run returns at the stop, and a later Run picks the process up again.
func TestStopThenPark(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	done := false
	s.Spawn(1, func(p *Proc) {
		p.Sleep(3 * Microsecond)
		s.Stop()
		p.Sleep(4 * Microsecond)
		done = true
	})
	if end := s.Run(); end != 3*Microsecond || done {
		t.Fatalf("first Run: end=%d done=%v, want stop at %d", end, done, 3*Microsecond)
	}
	if end := s.Run(); end != 7*Microsecond || !done {
		t.Fatalf("second Run: end=%d done=%v, want completion at %d", end, done, 7*Microsecond)
	}
}

// TestHandlerPanicSurfacesFromRun: a panic in a handler is not the kill
// sentinel, so it must come out of Run on the caller's goroutine, loudly.
func TestHandlerPanicSurfacesFromRun(t *testing.T) {
	s := NewSim(1)
	s.AddNode(1, NodeConfig{})
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) {
		p.Compute(Microsecond)
		panic("handler bug")
	}})
	bystander := NewFuture()
	s.Spawn(1, func(p *Proc) {
		p.Send(2, "ping")
		bystander.Wait(p)
	})
	func() {
		defer func() {
			if r := recover(); r != "handler bug" {
				t.Fatalf("Run recovered %v, want the handler's panic", r)
			}
		}()
		s.Run()
		t.Fatal("Run returned normally: the handler's panic was swallowed")
	}()
	s.Shutdown() // the parked bystander still unwinds
}

// goldenSchedule is the (at, seq, kind) sequence of pingTimeoutSchedule under
// seed 7, recorded from the channel-token engine this one replaced. Kinds:
// 0 timer, 1 wake, 2 deliver, 3 timeout, 4 spawn.
const goldenSchedule = `0/1/1 0/2/1 1000/8/1 1524/6/2 1524/11/1 1655/5/2 1655/13/1 2000/3/0 ` +
	`2642/9/2 2642/14/1 3524/12/1 3524/15/1 4000/4/4 4000/18/1 5203/16/2 5203/20/1 5203/21/1 ` +
	`5500/19/1 5524/17/1 6809/22/2 6809/25/1 7137/24/2 7137/27/1 8000/7/3 8378/26/2 8378/28/1 ` +
	`8378/29/1 9000/10/3 9000/30/1 10582/31/2 10582/33/1 12109/34/2 12109/35/1 12109/36/1 ` +
	`13203/23/3 17000/32/3`

// unlinkedExpiries are the expiries of the three calls answered in time.
// The recorded engine popped them as no-ops; a wait that ends early now
// takes its expiry out of the queue, and nothing else in the order moves.
var unlinkedExpiries = map[string]bool{"8000/7/3": true, "13203/23/3": true, "17000/32/3": true}

// pingTimeoutSchedule is a small three-node run touching every event kind: a
// client pings two servers with per-request timeouts, one server computes on
// a single core before answering, the other ignores its first ping so the
// client times out and retries, and a timer plus a deferred spawn fire in
// between.
func pingTimeoutSchedule(s *Sim) (pongs int) {
	s.AddNode(1, NodeConfig{})
	reply := map[int]*Future{} // by request id, which the servers echo
	s.Node(1).SetHandler(func(p *Proc, from NodeID, msg any) { reply[msg.(int)].Complete(nil) })
	s.AddNode(2, NodeConfig{Cores: 1, Handler: func(p *Proc, from NodeID, msg any) {
		p.Compute(2 * Microsecond)
		p.Send(from, msg)
	}})
	ignored := false
	s.AddNode(3, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) {
		if !ignored {
			ignored = true
			return
		}
		p.Send(from, msg)
	}})
	call := func(p *Proc, to NodeID, id int) {
		reply[id] = NewFuture()
		for {
			p.Send(to, id)
			if _, ok := reply[id].WaitTimeout(p, 8*Microsecond); ok {
				pongs++
				return
			}
		}
	}
	s.Spawn(1, func(p *Proc) {
		reply[0] = NewFuture()
		p.Send(2, 0) // occupies node 2's one core ahead of the first call
		call(p, 2, 1)
		call(p, 3, 2)
	})
	s.Spawn(1, func(p *Proc) {
		p.Sleep(Microsecond)
		call(p, 3, 3)
	})
	s.After(2*Microsecond, func() {})
	s.SpawnAfter(1, 4*Microsecond, func(p *Proc) { p.Sleep(1500 * Nanosecond) })
	s.Run()
	return pongs
}

func TestGoldenSchedule(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	var got []string
	s.probe = func(at Time, seq uint64, kind uint8) {
		got = append(got, fmt.Sprintf("%d/%d/%d", at, seq, kind))
	}
	if pongs := pingTimeoutSchedule(s); pongs != 3 {
		t.Fatalf("%d calls answered, want 3", pongs)
	}
	var want []string
	for _, ev := range strings.Fields(goldenSchedule) {
		if !unlinkedExpiries[ev] {
			want = append(want, ev)
		}
	}
	if len(want) != len(strings.Fields(goldenSchedule))-len(unlinkedExpiries) {
		t.Fatal("an unlinked expiry is missing from the recorded schedule")
	}
	if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
		t.Fatalf("event order moved\n got %s\nwant %s", g, w)
	}
}
