package rpc

import (
	"runtime"
	"testing"

	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// servedStep is one operation on a Served memo and, for an Admit, what it
// must answer: whether the handler runs and the value replayed (0: none).
type servedStep struct {
	op         string // "admit", "put" or "delete"
	client     env.NodeID
	rpc, acked uint64
	val        int // put: the value recorded
	run        bool
	replay     int
}

func admit(client env.NodeID, rpc, acked uint64, run bool, replay int) servedStep {
	return servedStep{op: "admit", client: client, rpc: rpc, acked: acked, run: run, replay: replay}
}

func put(client env.NodeID, rpc uint64, val int) servedStep {
	return servedStep{op: "put", client: client, rpc: rpc, val: val}
}

// TestServedTable runs each case's steps on an empty memo, checks every
// Admit's answer, and then the number of memos each client holds.
func TestServedTable(t *testing.T) {
	for _, c := range []struct {
		what  string
		steps []servedStep
		held  map[env.NodeID]int
	}{
		{"the first delivery runs",
			[]servedStep{admit(1, 5, 0, true, 0)},
			map[env.NodeID]int{1: 1}},
		{"a duplicate still in flight is dropped",
			[]servedStep{admit(1, 5, 0, true, 0), admit(1, 5, 0, false, 0)},
			map[env.NodeID]int{1: 1}},
		{"a duplicate that was answered is replayed",
			[]servedStep{admit(1, 5, 0, true, 0), put(1, 5, 50), admit(1, 5, 0, false, 50)},
			map[env.NodeID]int{1: 1}},
		{"a request below the floor is dropped without a replay",
			[]servedStep{admit(1, 5, 0, true, 0), put(1, 5, 50), admit(1, 6, 6, true, 0), admit(1, 5, 0, false, 0)},
			map[env.NodeID]int{1: 1}},
		{"an acknowledgement releases only the memos below it",
			[]servedStep{admit(1, 7, 0, true, 0), admit(1, 5, 0, true, 0), put(1, 5, 50), put(1, 7, 70),
				admit(1, 8, 6, true, 0), admit(1, 7, 0, false, 70), admit(1, 5, 0, false, 0)},
			map[env.NodeID]int{1: 2}},
		{"an older acknowledgement never lowers the floor",
			[]servedStep{admit(1, 6, 6, true, 0), admit(1, 4, 2, false, 0), admit(1, 5, 0, false, 0)},
			map[env.NodeID]int{1: 1}},
		{"one client's acknowledgement never drops another client's memos",
			[]servedStep{admit(1, 5, 0, true, 0), put(1, 5, 50), admit(2, 9, 9, true, 0), admit(1, 5, 0, false, 50)},
			map[env.NodeID]int{1: 1, 2: 1}},
		{"put below the floor does not bring the entry back",
			[]servedStep{admit(1, 5, 0, true, 0), admit(1, 6, 6, true, 0), put(1, 5, 50), admit(1, 5, 0, false, 0)},
			map[env.NodeID]int{1: 1}},
		{"after delete, a retransmission runs again",
			[]servedStep{admit(1, 5, 0, true, 0), {op: "delete", client: 1, rpc: 5}, admit(1, 5, 0, true, 0)},
			map[env.NodeID]int{1: 1}},
	} {
		var s Served[int]
		for i, st := range c.steps {
			switch st.op {
			case "admit":
				replayed := 0
				if run := s.Admit(st.client, st.rpc, st.acked, func(v int) { replayed = v }); run != st.run || replayed != st.replay {
					t.Errorf("%s: step %d, admit(%d, %d, acked %d) = (run %v, replayed %d), want (%v, %d)",
						c.what, i, st.client, st.rpc, st.acked, run, replayed, st.run, st.replay)
				}
			case "put":
				s.Put(st.client, st.rpc, st.val)
			case "delete":
				s.Delete(st.client, st.rpc)
			}
		}
		for client, want := range c.held {
			if got := s.Held(client); got != want {
				t.Errorf("%s: client %d holds %d memos, want %d", c.what, client, got, want)
			}
		}
	}
}

// BenchmarkServedAdmit is the served memo's layer benchmark (`make
// bench-layers`): 64 clients, each with one request in flight at a time
// that acknowledges its predecessor, pass the replay-or-begin step and have
// their reply recorded, one request per op. Besides ns/op and allocs/op (0
// once every client's memos have their capacity), it reports the heap one
// idle client keeps at a node — its floor and the memo of its last reply,
// not counting the reply itself — measured over 10 000 clients.
func BenchmarkServedAdmit(b *testing.B) {
	const clients = 64
	var s Served[int]
	replay := func(int) {}
	var next [clients]uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % clients
		next[c]++
		if !s.Admit(env.NodeID(c), next[c], next[c], replay) {
			b.Fatal("a fresh request was not admitted")
		}
		s.Put(env.NodeID(c), next[c], i)
	}
	b.StopTimer()
	b.ReportMetric(idleClientBytes(10000), "B/idle-client")
}

// idleClientBytes returns the live heap n clients that each made one
// answered request leave in a node's memo of replies, per client; the
// clients share one reply.
func idleClientBytes(n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var s Served[wire.Msg]
	var reply wire.Msg = new(wire.MutateResp)
	for c := 0; c < n; c++ {
		s.Admit(env.NodeID(c), 1, 0, nil)
		s.Put(env.NodeID(c), 1, reply)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&s)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
}
