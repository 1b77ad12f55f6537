package env

import (
	"math"
	"math/bits"
)

// The simulator's event queue is a two-level calendar ("ladder") queue
// indexed by time bucket. Events in the current bucket live in a small typed
// min-heap (now); events beyond the near window live in a typed far heap and
// migrate inwards as virtual time advances; events within the window — nearly
// all of them — are written once into a slab and linked O(1) onto their
// bucket's list. An occupancy bitmap finds the next populated bucket with a
// handful of word scans instead of walking empty ones.
//
// The slab is a list of fixed-size chunks of event values addressed by int32
// slot id (0 is nil, so the zero eventQueue is ready). ring holds one list
// head per bucket and event.next threads the list. A slot whose event moves
// on to the now heap, or is removed, is zeroed — dropping its p and msg
// references — and put on a free list the next push pops, so fresh slots are
// handed out only while all earlier ones are live: the queue's memory is the
// peak number of events queued at one instant, rounded up to a chunk, however
// many pass through.
// Chunks are never recopied (growth appends one) and never released.
//
// An event pushed for the instant of the last pop (a zero delay: wakeups,
// unparks, a third of all pushes) skips the heaps. Its sequence number is
// above every queued event's, so it fires after every event queued for that
// instant and in push order: it joins a FIFO, and pop takes the now heap's
// minimum while that is due at the same instant, the FIFO's head otherwise.
//
// The structure pops events in exactly (at, seq) order — the total order of
// a single global heap — because bucket ordinals partition time: every event
// in bucket b fires strictly before any event in bucket b+1, and the now
// heap orders the events sharing a bucket whatever order they were linked
// in. evqueue_test.go checks this against a reference model on randomized
// schedules.
//
// Why it is faster than one big heap: the common events (message deliveries
// ~1.5 µs out, process wakeups at the current instant) index into the ring
// or the FIFO, while long-lived retransmission timeouts (~2 ms out) wait in
// their buckets without inflating the comparison depth of every hot
// push/pop.
//
// Nearly every such timeout is answered first, and a wait or Timer that ends
// early takes its event back out (remove): push hands out the ring slot it
// filed the event in, and the slot, checked against the event's sequence
// number, is unlinked from its bucket's list and freed. So the slab holds the
// timeouts still pending, not every one armed in the last 2 ms. Removal
// never reorders the events that stay — pop order is (at, seq) and neither
// changes — so it moves no virtual time. An event already in the now or far
// heap, or in the FIFO, cannot be unlinked; its owner's staleness check (the
// sequence number it waits on) turns it into a no-op when it fires.

// Event kinds. The tagged union avoids allocating a closure + Timer + heap
// interface box per scheduled event — the dominant allocation source of the
// previous engine.
const (
	// evTimer fires a cancellable Timer callback (After / sched).
	evTimer uint8 = iota
	// evWake makes proc p runnable; aux holds the scheduler state the proc
	// must be in (stateDispatched or stateParked).
	evWake
	// evDeliver hands message msg from node `from` to node `to`.
	evDeliver
	// evTimeout expires a Future wait for p when p still waits on this
	// event's sequence number (others belong to waits that ended).
	evTimeout
	// evSpawn starts msg (a func(*Proc)) on node `to` when it fires: a
	// parked-to-heap continuation. Until then the pending session costs one
	// queued event — no goroutine, no stack.
	evSpawn
)

// event is one scheduled simulator action. msg multiplexes the payload —
// the delivered message for evDeliver, the *Timer for evTimer, the *Future
// for evTimeout — keeping the struct at 64 bytes; events are copied by
// value through the queue, so size is speed. next, in what was tail padding,
// is the queue's own: the slot id of the next event of the same bucket.
type event struct {
	at   Time
	seq  uint64
	aux  uint64
	p    *Proc
	msg  any
	from NodeID
	to   NodeID
	kind uint8
	next int32
}

// before orders events by (time, schedule sequence).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a typed binary min-heap ordered by (at, seq); no interface
// boxing on push/pop.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release pointers for GC
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q[l].before(&q[min]) {
			min = l
		}
		if r < n && q[r].before(&q[min]) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

const (
	// bucketShift sets the bucket granularity: 512 ns per bucket, a
	// fraction of the 1.5 µs default link latency.
	bucketShift = 9
	// ringBits sets the near window: 8192 buckets ≈ 4.2 ms, covering the
	// 2 ms RPC retransmission timeout that dominates long-lived events.
	ringBits = 13
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
	// chunkShift sets the slab's growth step: 1024 events = 64 KB per chunk.
	chunkShift = 10
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// eventQueue is the ladder queue. Events are pushed in increasing seq order.
type eventQueue struct {
	n   int
	at  Time  // the time of the last popped event
	cur int64 // bucket ordinal all popped events precede-or-share
	// fifo is a ring buffer (power-of-two length) of the events due at `at`
	// that were pushed after it became current: nFIFO of them from fifoHead.
	fifo     []event
	fifoHead int
	nFIFO    int
	// now holds events of bucket ordinal `cur`.
	now eventHeap
	// ring[o&ringMask] heads the list of slots holding the events of ordinal
	// o, for o in (cur, cur+ringSize).
	ring  [ringSize]int32
	nRing int
	// occ is the ring occupancy bitmap: bit s set ⇔ ring[s] non-empty.
	occ [ringSize / 64]uint64
	// far holds events at or beyond ordinal cur+ringSize.
	far eventHeap

	// The slab: slot id i is chunks[i>>chunkShift][i&chunkMask]. Ids 1..top
	// have been handed out; free heads the list of those holding no event.
	chunks []*[chunkSize]event
	top    int32
	free   int32
}

func ordinalOf(t Time) int64 { return int64(uint64(t) >> bucketShift) }

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return q.n }

func (q *eventQueue) slot(i int32) *event { return &q.chunks[i>>chunkShift][i&chunkMask] }

// alloc returns a slot to write an event into: the most recently freed one,
// or a fresh one when every slot handed out so far holds an event.
func (q *eventQueue) alloc() (int32, *event) {
	if i := q.free; i != 0 {
		e := q.slot(i)
		q.free = e.next
		return i, e
	}
	if q.top == math.MaxInt32 {
		panic("env: event queue full: 2^31-1 events queued at once overflow int32 slot ids")
	}
	q.top++
	if int(q.top>>chunkShift) == len(q.chunks) {
		q.chunks = append(q.chunks, new([chunkSize]event))
	}
	return q.top, q.slot(q.top)
}

// push enqueues ev; ev.at must be ≥ the time of the last popped event. It
// returns the ring slot ev was filed in, or 0 when it went to a heap or the
// FIFO.
func (q *eventQueue) push(ev event) int32 {
	q.n++
	if ev.at == q.at {
		q.pushFIFO(&ev)
		return 0
	}
	if o := ordinalOf(ev.at); o < q.cur+ringSize {
		return q.link(o, &ev)
	}
	q.far.push(ev)
	return 0
}

// link files ev, of ordinal o inside the window, where pop will find it: in
// the now heap when o is current, else at the head of its bucket's list. It
// returns the slot, or 0 for the now heap.
func (q *eventQueue) link(o int64, ev *event) int32 {
	if o <= q.cur {
		q.now.push(*ev)
		return 0
	}
	s := o & ringMask
	i, e := q.alloc()
	*e = *ev
	e.next = q.ring[s]
	if e.next == 0 {
		q.occ[s>>6] |= 1 << uint(s&63)
		q.nRing++
	}
	q.ring[s] = i
	return i
}

// evRef names one pushed event for remove: the slot push returned and the
// event's sequence number (≥ 1), which tells whether the slot still holds it.
// The zero evRef names no event.
type evRef struct {
	slot int32
	seq  uint64
}

// remove unlinks the event r names if it still waits in its ring slot, and
// reports whether it did. Once the event has moved to the now heap or left
// the queue, the slot is free or holds another event — or Shutdown dropped
// the slab — and remove does nothing.
func (q *eventQueue) remove(r evRef) bool {
	if r.slot == 0 || r.slot > q.top || q.slot(r.slot).seq != r.seq {
		return false
	}
	e := q.slot(r.slot)
	s := ordinalOf(e.at) & ringMask
	if q.ring[s] == r.slot {
		q.ring[s] = e.next
		if e.next == 0 {
			q.occ[s>>6] &^= 1 << uint(s&63)
			q.nRing--
		}
	} else {
		// The list is singly linked and pushes prepend, so the walk passes
		// the events filed in this bucket after this one.
		prev := q.slot(q.ring[s])
		for prev.next != r.slot {
			prev = q.slot(prev.next)
		}
		prev.next = e.next
	}
	*e = event{next: q.free}
	q.free = r.slot
	q.n--
	return true
}

// pushFIFO appends ev to the FIFO, doubling the ring buffer when it is full.
func (q *eventQueue) pushFIFO(ev *event) {
	if q.nFIFO == len(q.fifo) {
		grown := make([]event, max(16, 2*len(q.fifo)))
		n := copy(grown, q.fifo[q.fifoHead:])
		copy(grown[n:], q.fifo[:q.fifoHead])
		q.fifo, q.fifoHead = grown, 0
	}
	q.fifo[(q.fifoHead+q.nFIFO)&(len(q.fifo)-1)] = *ev
	q.nFIFO++
}

// pop dequeues the (at, seq)-minimal event. Call only when Len() > 0.
func (q *eventQueue) pop() event {
	q.n--
	if q.nFIFO > 0 && (len(q.now) == 0 || q.now[0].at != q.at) {
		e := &q.fifo[q.fifoHead]
		ev := *e
		*e = event{} // release p and msg to the GC
		q.fifoHead = (q.fifoHead + 1) & (len(q.fifo) - 1)
		q.nFIFO--
		return ev
	}
	if len(q.now) == 0 {
		q.advance()
	}
	ev := q.now.pop()
	q.at = ev.at
	return ev
}

// advance moves cur to the next populated bucket and loads it into the now
// heap, migrating far events that the new window reaches.
func (q *eventQueue) advance() {
	for len(q.now) == 0 {
		if q.nRing > 0 {
			q.loadBucket(q.nextRingOrdinal())
		} else {
			// Jump straight to the earliest far event's bucket.
			q.cur = ordinalOf(q.far[0].at)
		}
		q.migrateFar()
	}
}

// nextRingOrdinal scans the occupancy bitmap for the first populated bucket
// after cur.
func (q *eventQueue) nextRingOrdinal() int64 {
	for d := int64(1); d < ringSize; {
		s := (q.cur + d) & ringMask
		w := q.occ[s>>6] >> uint(s&63)
		if w != 0 {
			return q.cur + d + int64(bits.TrailingZeros64(w))
		}
		d += 64 - int64(s&63) // next word boundary
	}
	panic("env: event ring occupancy out of sync")
}

// loadBucket makes the populated ordinal o current and moves its events into
// the now heap, freeing their slots.
func (q *eventQueue) loadBucket(o int64) {
	q.cur = o
	s := o & ringMask
	i := q.ring[s]
	q.ring[s] = 0
	q.occ[s>>6] &^= 1 << uint(s&63)
	q.nRing--
	for i != 0 {
		e := q.slot(i)
		next := e.next
		q.now.push(*e)
		*e = event{next: q.free} // release p and msg to the GC
		q.free = i
		i = next
	}
}

// migrateFar pulls far events that now fall inside the ring window.
func (q *eventQueue) migrateFar() {
	limit := q.cur + ringSize
	for len(q.far) > 0 && ordinalOf(q.far[0].at) < limit {
		ev := q.far.pop()
		q.link(ordinalOf(ev.at), &ev)
	}
}
