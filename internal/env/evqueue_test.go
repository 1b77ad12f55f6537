package env

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// checkSlab asserts the slab's conservation laws on a queue whose events all
// carry seq ≥ 1: every slot handed out either holds an event or sits, zeroed,
// on the free list, Len() counts exactly the ring, now, far and FIFO events,
// and the FIFO holds events due at the last pop's instant and nothing past
// its count. With walkRing it also follows every bucket list: each live slot hangs off
// the bucket of its own ordinal, and the bitmap and nRing agree with the heads.
func checkSlab(t *testing.T, q *eventQueue, walkRing bool) {
	t.Helper()
	live := 0
	for i := int32(1); i <= q.top; i++ {
		if q.slot(i).seq != 0 {
			live++
		}
	}
	free := 0
	for i := q.free; i != 0; i = q.slot(i).next {
		if e := q.slot(i); *e != (event{next: e.next}) {
			t.Fatalf("free slot %d still holds %+v", i, *e)
		}
		if free++; free > int(q.top) {
			t.Fatal("free list cycles")
		}
	}
	if live+free != int(q.top) {
		t.Fatalf("slots: %d live + %d free != %d allocated", live, free, q.top)
	}
	if want := live + len(q.now) + len(q.far) + q.nFIFO; q.Len() != want {
		t.Fatalf("Len=%d, want %d ring + %d now + %d far + %d FIFO", q.Len(), live, len(q.now), len(q.far), q.nFIFO)
	}
	for i := range q.fifo {
		e := q.fifo[(q.fifoHead+i)&(len(q.fifo)-1)]
		if i < q.nFIFO && (e.at != q.at || e.seq == 0) {
			t.Fatalf("FIFO entry %d: %+v, want an event due at %d", i, e, q.at)
		}
		if i >= q.nFIFO && e != (event{}) {
			t.Fatalf("vacated FIFO entry %d still holds %+v", i, e)
		}
	}
	need := 0 // chunks covering ids 0..top
	if q.top > 0 {
		need = int(q.top>>chunkShift) + 1
	}
	if len(q.chunks) != need {
		t.Fatalf("%d chunks for %d slots, want %d", len(q.chunks), q.top, need)
	}
	if !walkRing {
		return
	}
	linked, buckets := 0, 0
	for s := range q.ring {
		occupied := q.occ[s>>6]&(1<<uint(s&63)) != 0
		if occupied != (q.ring[s] != 0) {
			t.Fatalf("bucket %d: head %d, occupancy bit %v", s, q.ring[s], occupied)
		}
		if occupied {
			buckets++
		}
		for i := q.ring[s]; i != 0; i = q.slot(i).next {
			o := ordinalOf(q.slot(i).at)
			if int(o&ringMask) != s || o <= q.cur || o >= q.cur+ringSize {
				t.Fatalf("slot %d of ordinal %d linked in bucket %d (cur %d)", i, o, s, q.cur)
			}
			if linked++; linked > live {
				t.Fatal("bucket lists hold more events than live slots")
			}
		}
	}
	if linked != live || buckets != q.nRing {
		t.Fatalf("ring walk: %d linked of %d live, %d buckets, nRing=%d", linked, live, buckets, q.nRing)
	}
}

// TestEventQueueOrdering drives the ladder queue with randomized interleaved
// push/pop/remove schedules and checks every pop against a reference model
// sorted by (at, seq) — the total order the simulator's determinism rests
// on. A removal must succeed exactly while the event still waits in the ring
// slot push filed it in, and must leave the order of the rest untouched. The
// second delay mix puts most events on a few instants, so zero-delay pushes
// (the FIFO) queue beside events of the same instant in the now heap and
// are removed, or fail to be, in between.
func TestEventQueueOrdering(t *testing.T) {
	// The simulator's mix: immediate wakeups, link-latency deliveries,
	// retransmission timeouts beyond the ring window, and occasional
	// far-future timers.
	simMix := []Duration{0, 0, 0, 1, 100, 1500, 1700, 2 * Millisecond,
		2 * Millisecond, 5 * Millisecond, 40 * Millisecond, 300 * Millisecond}
	burstMix := []Duration{0, 0, 0, 0, 0, 1, 1, 2, 512, 1024, 1024, 2 * Millisecond}
	t.Run("sim", func(t *testing.T) { checkOrdering(t, simMix, 50) })
	t.Run("burst", func(t *testing.T) { checkOrdering(t, burstMix, 20) })
}

func checkOrdering(t *testing.T, delays []Duration, trials int) {
	rnd := rand.New(rand.NewSource(42))
	removed, fifoRemoves, interleaved := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		var q eventQueue
		var ref []event
		var cur Time
		var seq uint64
		slots := make(map[uint64]int32) // by seq: the slot push returned
		for step := 0; step < 4000; step++ {
			checkSlab(t, &q, step%256 == 0)
			if q.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len=%d want %d", trial, step, q.Len(), len(ref))
			}
			if q.Len() == 0 || rnd.Intn(3) != 0 {
				d := delays[rnd.Intn(len(delays))]
				if rnd.Intn(8) == 0 {
					d += Duration(rnd.Int63n(int64(10 * Millisecond)))
				}
				seq++
				ev := event{at: cur + d, seq: seq, aux: seq}
				slots[seq] = q.push(ev)
				ref = append(ref, ev)
				continue
			}
			if rnd.Intn(4) == 0 {
				k := rnd.Intn(len(ref))
				ev := ref[k]
				inNow := false
				for _, e := range q.now {
					inNow = inNow || e.seq == ev.seq
				}
				// Pushed into the ring and not yet loaded into the now heap:
				// exactly then the slot still holds the event. An event in
				// the FIFO was handed slot 0.
				want := slots[ev.seq] != 0 && !inNow
				if got := q.remove(evRef{slot: slots[ev.seq], seq: ev.seq}); got != want {
					t.Fatalf("trial %d step %d: remove(seq %d, slot %d) = %v, want %v",
						trial, step, ev.seq, slots[ev.seq], got, want)
				}
				if want {
					ref = append(ref[:k], ref[k+1:]...)
					removed++
				} else if ev.at == cur && !inNow {
					fifoRemoves++
				}
				continue
			}
			if q.nFIFO > 0 && len(q.now) > 0 && q.now[0].at == q.at {
				interleaved++ // the now heap's event goes first
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
			want := ref[0]
			ref = ref[1:]
			got := q.pop()
			if got.at != want.at || got.seq != want.seq || got.aux != want.aux {
				t.Fatalf("trial %d step %d: popped (at=%d seq=%d), want (at=%d seq=%d)",
					trial, step, got.at, got.seq, want.at, want.seq)
			}
			if got.at < cur {
				t.Fatalf("trial %d step %d: time went backwards (%d < %d)", trial, step, got.at, cur)
			}
			cur = got.at
		}
		// Drain: the remainder must come out in exact (at, seq) order.
		sort.Slice(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
		for i := 0; q.Len() > 0; i++ {
			got := q.pop()
			if got.at != ref[i].at || got.seq != ref[i].seq {
				t.Fatalf("trial %d drain %d: popped (at=%d seq=%d), want (at=%d seq=%d)",
					trial, i, got.at, got.seq, ref[i].at, ref[i].seq)
			}
			cur = got.at
		}
		checkSlab(t, &q, true)
	}
	t.Logf("%d removals, %d refused in the FIFO, %d now-heap pops ahead of the FIFO", removed, fifoRemoves, interleaved)
	if removed < 1000 || fifoRemoves < 100 || interleaved < 100 {
		t.Fatalf("schedule too tame: %d removals, %d refused in the FIFO, %d now-heap pops ahead of the FIFO",
			removed, fifoRemoves, interleaved)
	}
}

// TestEventQueueSparseJumps exercises large time gaps that skip far past the
// ring window in one hop (idle simulations with a lone recovery timer).
func TestEventQueueSparseJumps(t *testing.T) {
	var q eventQueue
	var seq uint64
	at := []Time{0, 100, 3 * Millisecond, 600 * Millisecond, 601 * Millisecond,
		10 * Second, 10*Second + 1}
	for _, a := range at {
		seq++
		q.push(event{at: a, seq: seq})
	}
	for i, want := range at {
		got := q.pop()
		if got.at != want {
			t.Fatalf("pop %d: at=%d want %d", i, got.at, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// simDelays draws n delays from the simulator's mix: wakeups at the current
// instant, link-latency deliveries, 2 ms retransmission timeouts (parked in
// the ring) and the occasional 40 ms timer (parked in the far heap).
func simDelays(rnd *rand.Rand, n int) []Duration {
	d := make([]Duration, n)
	for i := range d {
		switch r := rnd.Intn(100); {
		case r < 40:
			d[i] = 0
		case r < 85:
			d[i] = 1500
		case r < 99:
			d[i] = 2 * Millisecond
		default:
			d[i] = 40 * Millisecond
		}
	}
	return d
}

// TestEventQueueFootprintFollowsLiveEvents pushes a million events through a
// queue that never holds more than 1 024 at once: the slab must stay within
// two chunks of the peak live count however far virtual time travels — many
// ring wraps, and jumps to a lone far event across an otherwise empty queue.
func TestEventQueueFootprintFollowsLiveEvents(t *testing.T) {
	const steps, maxLive = 1_000_000, 1024
	rnd := rand.New(rand.NewSource(7))
	delays := simDelays(rnd, 1<<12)
	var q eventQueue
	var cur Time
	var seq uint64
	peak, farJumps := 0, 0
	pop := func() {
		if len(q.now) == 0 && q.nRing == 0 {
			farJumps++
		}
		ev := q.pop()
		if ev.at < cur {
			t.Fatalf("time went backwards (%d < %d)", ev.at, cur)
		}
		cur = ev.at
	}
	for step := 0; step < steps; step++ {
		if step%(steps/4) == steps/8 { // run dry, leaving one 40 ms timer to jump to
			for q.Len() > 0 {
				pop()
			}
			seq++
			q.push(event{at: cur + 40*Millisecond, seq: seq})
			pop()
		}
		if q.Len() < maxLive && (q.Len() == 0 || rnd.Intn(2) == 0) {
			seq++
			q.push(event{at: cur + delays[step%len(delays)], seq: seq})
		} else {
			pop()
		}
		if q.Len() > peak {
			peak = q.Len()
		}
		if slots := len(q.chunks) * chunkSize; slots > peak+2*chunkSize {
			t.Fatalf("step %d: %d slots allocated, peak live %d", step, slots, peak)
		}
	}
	checkSlab(t, &q, true)
	if int(q.top) > peak {
		t.Fatalf("%d slots handed out, only %d events were ever live at once", q.top, peak)
	}
	if wraps := q.cur / ringSize; wraps < 3 || farJumps < 4 {
		t.Fatalf("schedule too tame: %d ring wraps, %d far jumps", wraps, farJumps)
	}
}

// TestEventQueueReleasesPayload: once an event has left its slot, the slot
// holds no reference to its process or message — a popped message is
// collectable while the queue lives on.
func TestEventQueueReleasesPayload(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz != 64 {
		t.Fatalf("event is %d bytes, want 64 (next must fit in the tail padding)", sz)
	}
	var q eventQueue
	q.push(event{at: 1500, seq: 1, kind: evDeliver, p: &Proc{}, msg: new(int), from: 1, to: 2})
	i := q.ring[ordinalOf(1500)]
	if i == 0 {
		t.Fatal("event 1.5 µs out was not filed in the ring")
	}
	if ev := q.pop(); ev.p == nil || ev.msg == nil || ev.to != 2 {
		t.Fatalf("popped %+v, payload lost", ev)
	}
	if e := q.slot(i); *e != (event{}) || q.free != i {
		t.Fatalf("slot %d after pop: %+v (free head %d), want zeroed and free", i, *e, q.free)
	}
	if left := q.now[:1][0]; len(q.now) != 0 || left != (event{}) {
		t.Fatalf("now heap after pop: len %d, vacated entry %+v", len(q.now), left)
	}
}

// TestEventQueueSlotOverflow: slot ids are int32; a queue that would need
// one more says so instead of wrapping onto live slots.
func TestEventQueueSlotOverflow(t *testing.T) {
	q := eventQueue{top: math.MaxInt32}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "event queue full") {
			t.Fatalf("push past the last slot id: recovered %q, want the queue-full panic", r)
		}
	}()
	q.push(event{at: 1500, seq: 1})
}
