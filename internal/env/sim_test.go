package env

import (
	"fmt"
	"strings"
	"testing"
)

func TestSimClockAdvancesWithSleep(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var woke Time
	s.Spawn(1, func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	s.Run()
	if woke != 5*Microsecond {
		t.Fatalf("woke at %d, want %d", woke, 5*Microsecond)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewSim(42)
		defer s.Shutdown()
		s.Net().Jitter = 500
		var times []Time
		s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) {
			times = append(times, p.Now())
		}})
		s.AddNode(1, NodeConfig{})
		s.Spawn(1, func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Send(2, i)
				p.Sleep(100)
			}
		})
		s.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("deliveries: %d and %d, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSimMessageLatency(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	s.Net().Latency = 1500
	s.Net().Jitter = 0
	var at Time
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { at = p.Now() }})
	s.AddNode(1, NodeConfig{})
	s.Spawn(1, func(p *Proc) { p.Send(2, "hi") })
	s.Run()
	if at != 1500 {
		t.Fatalf("delivered at %d, want 1500", at)
	}
}

func TestSimDropAndFilter(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	got := 0
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { got++ }})
	s.AddNode(1, NodeConfig{})
	s.Net().Filter = func(from, to NodeID, msg any) Verdict {
		if v, ok := msg.(int); ok && v%2 == 0 {
			return Drop
		}
		return Pass
	}
	s.Spawn(1, func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Send(2, i)
		}
	})
	s.Run()
	if got != 5 {
		t.Fatalf("delivered %d, want 5 (evens dropped)", got)
	}
}

func TestSimDuplication(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	got := 0
	s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { got++ }})
	s.AddNode(1, NodeConfig{})
	s.Net().Filter = func(from, to NodeID, msg any) Verdict { return Dup }
	s.Spawn(1, func(p *Proc) { p.Send(2, "x") })
	s.Run()
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestSimDownNodeDropsTraffic(t *testing.T) {
	s := NewSim(7)
	defer s.Shutdown()
	got := 0
	n2 := s.AddNode(2, NodeConfig{Handler: func(p *Proc, from NodeID, msg any) { got++ }})
	s.AddNode(1, NodeConfig{})
	n2.SetDown(true)
	s.Spawn(1, func(p *Proc) { p.Send(2, "x") })
	s.Run()
	if got != 0 {
		t.Fatalf("crashed node received %d messages", got)
	}
	n2.SetDown(false)
	s.Spawn(1, func(p *Proc) { p.Send(2, "x") })
	s.Run()
	if got != 1 {
		t.Fatalf("recovered node received %d messages, want 1", got)
	}
}

func TestFutureCompleteBeforeWait(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	f.Complete(99)
	f.Complete(100) // duplicate ignored
	var got any
	s.Spawn(1, func(p *Proc) { got = f.Wait(p) })
	s.Run()
	if got != 99 {
		t.Fatalf("got %v, want 99", got)
	}
}

func TestFutureWaitThenComplete(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var got any
	var at Time
	s.Spawn(1, func(p *Proc) {
		got = f.Wait(p)
		at = p.Now()
	})
	s.Spawn(1, func(p *Proc) {
		p.Sleep(10 * Microsecond)
		f.Complete("done")
	})
	s.Run()
	if got != "done" || at != 10*Microsecond {
		t.Fatalf("got %v at %d", got, at)
	}
}

// TestFutureWakesEveryWaiterInOrder: three processes wait on one future;
// its completion wakes each of them, in the order they came, with the value.
func TestFutureWakesEveryWaiterInOrder(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var woke []int
	for i := 0; i < 3; i++ {
		s.Spawn(1, func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond)
			if v := f.Wait(p); v == "done" && p.Now() == 10*Microsecond {
				woke = append(woke, i)
			}
		})
	}
	s.Spawn(1, func(p *Proc) {
		p.Sleep(10 * Microsecond)
		f.Complete("done")
	})
	s.Run()
	if fmt.Sprint(woke) != "[0 1 2]" {
		t.Fatalf("woke %v at 10µs with the value, want [0 1 2]", woke)
	}
}

func TestFutureTimeout(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var ok bool
	var at Time
	s.Spawn(1, func(p *Proc) {
		_, ok = f.WaitTimeout(p, 3*Microsecond)
		at = p.Now()
	})
	s.Run()
	if ok || at != 3*Microsecond {
		t.Fatalf("ok=%v at=%d, want timeout at 3µs", ok, at)
	}
}

// TestWaitTimeoutZero: a zero timeout expires at the instant it was armed,
// after the events already due then. Its expiry is queued for the current
// instant, where it cannot be unlinked, and is recognised by its sequence
// number: it ends the wait it was armed for, and is a no-op for one that a
// completion due first has already ended.
func TestWaitTimeoutZero(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f, g := NewFuture(), NewFuture()
	var timedOut, answered bool
	var got any
	var at Time
	s.Spawn(1, func(p *Proc) {
		p.Sleep(5 * Microsecond)
		_, ok := f.WaitTimeout(p, 0)
		timedOut, at = !ok, p.Now()
		s.After(0, func() { g.Complete(7) })
		got, answered = g.WaitTimeout(p, 0)
	})
	if end := s.Run(); !timedOut || at != 5*Microsecond || end != 5*Microsecond {
		t.Fatalf("timed out %v at %d, Run ended at %d: want a timeout at 5µs", timedOut, at, end)
	}
	if !answered || got != 7 || s.pq.Len() != 0 {
		t.Fatalf("got %v ok=%v with %d events left, want 7 true and an empty queue", got, answered, s.pq.Len())
	}
}

func TestFutureTimeoutBeatenByComplete(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var got any
	var ok bool
	s.Spawn(1, func(p *Proc) { got, ok = f.WaitTimeout(p, 10*Microsecond) })
	s.Spawn(1, func(p *Proc) {
		p.Sleep(2 * Microsecond)
		f.Complete(7)
	})
	s.Run()
	if !ok || got != 7 {
		t.Fatalf("got %v ok=%v, want 7 true", got, ok)
	}
}

// TestFutureTimeoutWaitersAllWoken: two WaitTimeouts on one future are both
// woken by its completion, in the order they came, with the value.
func TestFutureTimeoutWaitersAllWoken(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var woke []int
	for i := 0; i < 2; i++ {
		s.Spawn(1, func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond)
			if v, ok := f.WaitTimeout(p, Millisecond); ok && v == 7 && p.Now() == 5*Microsecond {
				woke = append(woke, i)
			}
		})
	}
	s.Spawn(1, func(p *Proc) {
		p.Sleep(5 * Microsecond)
		f.Complete(7)
	})
	s.Run()
	if fmt.Sprint(woke) != "[0 1]" {
		t.Fatalf("woke %v at 5µs with the value, want [0 1]", woke)
	}
}

// TestFutureTimeoutLeavesOtherWaiter: of two WaitTimeouts on one future, the
// shorter expires on time and the longer is still woken by the completion
// that comes between the two expiries.
func TestFutureTimeoutLeavesOtherWaiter(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	var shortOK, longOK bool
	var shortAt, longAt Time
	s.Spawn(1, func(p *Proc) {
		_, longOK = f.WaitTimeout(p, 10*Microsecond)
		longAt = p.Now()
	})
	s.Spawn(1, func(p *Proc) {
		_, shortOK = f.WaitTimeout(p, 2*Microsecond)
		shortAt = p.Now()
	})
	s.Spawn(1, func(p *Proc) {
		p.Sleep(5 * Microsecond)
		f.Complete(nil)
	})
	s.Run()
	if shortOK || shortAt != 2*Microsecond || !longOK || longAt != 5*Microsecond {
		t.Fatalf("short wait ok=%v at %d, long wait ok=%v at %d; want a timeout at 2µs and a completion at 5µs",
			shortOK, shortAt, longOK, longAt)
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var m Mutex
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(1, func(p *Proc) {
			p.Sleep(Duration(i) * 10) // arrive in index order
			m.Lock(p)
			order = append(order, i)
			p.Sleep(Microsecond)
			m.Unlock()
		})
	}
	s.Run()
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want FIFO %v", order, want)
		}
	}
}

func TestMutexSerializesCriticalSections(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 10; i++ {
		s.Spawn(1, func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(Microsecond)
			inside--
			m.Unlock()
		})
	}
	end := s.Run()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d", maxInside)
	}
	if end < 10*Microsecond {
		t.Fatalf("10 serialized 1µs sections finished in %d", end)
	}
}

func TestSemaphoreLimitsParallelism(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{Cores: 2})
	// 8 × 1 µs of compute on 2 cores must take 4 µs of virtual time.
	for i := 0; i < 8; i++ {
		s.Spawn(1, func(p *Proc) { p.Compute(Microsecond) })
	}
	end := s.Run()
	if end != 4*Microsecond {
		t.Fatalf("8×1µs on 2 cores ended at %d, want 4µs", end)
	}
}

func TestComputeUnlimitedCores(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{}) // Cores == 0: pure delay
	for i := 0; i < 8; i++ {
		s.Spawn(1, func(p *Proc) { p.Compute(Microsecond) })
	}
	if end := s.Run(); end != Microsecond {
		t.Fatalf("parallel compute ended at %d, want 1µs", end)
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	fired := false
	tm := s.After(Microsecond, func() { fired = true })
	tm.Cancel()
	if s.pq.Len() != 0 {
		t.Fatalf("cancelled timer left %d events queued", s.pq.Len())
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestWaitTimeoutAnsweredLeavesQueue: a wait answered before its expiry
// leaves the queue as it found it — the expiry goes with the wait.
func TestWaitTimeoutAnsweredLeavesQueue(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	s.After(Second, func() {}) // stays queued throughout
	f := NewFuture()
	before, after := -1, -2
	var ok bool
	s.Spawn(1, func(p *Proc) {
		before = s.pq.Len()
		s.After(Microsecond, func() { f.Complete(1) })
		_, ok = f.WaitTimeout(p, 2*Millisecond)
		after = s.pq.Len()
	})
	if end := s.Run(); !ok || before != after || end != Second {
		t.Fatalf("ok=%v, Len %d before the wait and %d after, Run ended at %d", ok, before, after, end)
	}
}

// TestTimerResetInCurrentBucket re-arms a timer whose event already moved to
// the current bucket's heap, where it cannot be unlinked: the old event must
// not fire, and the re-armed one fires exactly once.
func TestTimerResetInCurrentBucket(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	var fired []Time
	tm := s.After(10*Microsecond, func() { fired = append(fired, s.Now()) })
	s.After(9900, func() { // same 512 ns bucket as 10 µs
		if len(s.pq.now) != 1 || s.pq.now[0].seq != tm.ev.seq {
			t.Fatalf("the timer's event is not waiting in the now heap: %+v", s.pq.now)
		}
		tm.Reset(5 * Microsecond)
	})
	s.Run()
	if len(fired) != 1 || fired[0] != 14900 {
		t.Fatalf("fired at %v, want once at 14900", fired)
	}
	// A second Reset from outside the run unlinks the pending event.
	tm.Reset(Microsecond)
	n := s.pq.Len()
	tm.Reset(2 * Microsecond)
	if s.pq.Len() != n {
		t.Fatalf("Reset of a pending ring event: Len %d → %d", n, s.pq.Len())
	}
	s.Run()
	if len(fired) != 2 || fired[1] != 16900 {
		t.Fatalf("fired at %v, want a second time at 16900", fired)
	}
}

// TestCancelNotUnlinkable cancels timers whose events sit where remove cannot
// reach them — the now heap and the far heap: they stay queued and fire as
// no-ops.
func TestCancelNotUnlinkable(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	fired := 0
	far := s.After(40*Millisecond, func() { fired++ }) // beyond the ring window
	if len(s.pq.far) != 1 || far.ev.slot != 0 {
		t.Fatalf("a 40 ms timer was not filed in the far heap (slot %d)", far.ev.slot)
	}
	near := s.After(10*Microsecond, func() { fired++ })
	s.After(9900, func() { // near's event is in the now heap by now
		near.Cancel()
		far.Cancel()
		if s.pq.Len() != 2 {
			t.Fatalf("Len=%d after cancelling two unlinkable events, want both still queued", s.pq.Len())
		}
	})
	if end := s.Run(); fired != 0 || end != 40*Millisecond {
		t.Fatalf("fired %d cancelled timers, Run ended at %d", fired, end)
	}
}

func TestRunFor(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	ticks := 0
	s.Spawn(1, func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ticks++
		}
	})
	// RunFor stops at the scheduled horizon; the wakeup at exactly t=10µs was
	// scheduled after the stop event and does not run.
	s.RunFor(10 * Microsecond)
	if ticks != 9 {
		t.Fatalf("ticks=%d, want 9", ticks)
	}
}

func TestShutdownKillsParkedProcs(t *testing.T) {
	s := NewSim(1)
	s.AddNode(1, NodeConfig{})
	f := NewFuture()
	for i := 0; i < 50; i++ {
		s.Spawn(1, func(p *Proc) { f.Wait(p) }) // parked forever
	}
	s.Run()
	s.Shutdown() // must not hang
}

// TestReplySlotLateCompleteDropped: a completion that reaches a process's
// reply slot after its call released it does not wake the process's next
// call, which times out.
func TestReplySlotLateCompleteDropped(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	var first, late any
	var ok bool
	s.Spawn(1, func(p *Proc) {
		f := p.TakeReply()
		s.After(Microsecond, func() { f.Complete(1) })
		first, _ = f.WaitTimeout(p, Millisecond)
		p.ReleaseReply()
		f.Complete(2) // late: the call already released its slot
		late, ok = p.TakeReply().WaitTimeout(p, 3*Microsecond)
		p.ReleaseReply()
	})
	s.Run()
	if first != 1 || ok || late != nil {
		t.Fatalf("first call got %v; next call got %v, %v; want 1, then a timeout", first, late, ok)
	}
}

// TestReplySlotHeldTwicePanics: a process makes one call at a time, so taking
// its slot while a call holds it panics.
func TestReplySlotHeldTwicePanics(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	s.Spawn(1, func(p *Proc) {
		p.TakeReply()
		p.TakeReply()
	})
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "reply slot taken twice") {
			t.Fatalf("Run recovered %q, want the slot's panic", r)
		}
	}()
	s.Run()
	t.Fatal("taking a held slot did not panic")
}

// TestReplySlotHeldPastDispatchPanics: a dispatch that returns while its
// call still holds the slot panics in the scheduler, before the pooled
// worker can carry the slot into its next body.
func TestReplySlotHeldPastDispatchPanics(t *testing.T) {
	s := NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, NodeConfig{})
	s.Spawn(1, func(p *Proc) { p.TakeReply() })
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "holding its reply slot") {
			t.Fatalf("Run recovered %q, want the dispatch's panic", r)
		}
	}()
	s.Run()
	t.Fatal("returning with the slot held did not panic")
}
