package server

import (
	"fmt"
	"reflect"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wire"
)

// flushRig is one server that owns every group — the name's and, over the
// loopback, the directory's — a coordinator node that collects the flush
// answers and a switch node that counts dirty-set inserts.
type flushRig struct {
	sim      *env.Sim
	s        *Server
	dir      core.DirRef
	dl       *dirLog
	pushes   [][]uint64 // entry ids of every ChangePush on the wire, in order
	dropPush bool       // the directory's owner is unreachable
	inserts  int
	resp     *wire.FlushEntryResp
	respAt   env.Time
}

const flushCoord env.NodeID = 200

func newFlushRig(t *testing.T) *flushRig {
	t.Helper()
	r := &flushRig{sim: env.NewSim(3)}
	t.Cleanup(r.sim.Shutdown)
	r.sim.AddNode(1, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if ds := msg.(*wire.Packet).DS; ds != nil && ds.Op == wire.DSInsert {
			r.inserts++
		}
	}})
	r.sim.AddNode(flushCoord, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if resp, ok := msg.(*wire.Packet).Body.(*wire.FlushEntryResp); ok && r.resp == nil {
			r.resp, r.respAt = resp, p.Now()
		}
	}})
	r.sim.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
		if cp, ok := msg.(*wire.Packet).Body.(*wire.ChangePush); ok {
			var ids []uint64
			for _, e := range cp.Log.Entries {
				ids = append(ids, e.ID)
			}
			r.pushes = append(r.pushes, ids)
			if r.dropPush {
				return env.Drop
			}
		}
		return env.Pass
	}
	r.s = New(r.sim, Config{ID: 100, Costs: env.DefaultCosts(),
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return 100 }),
		Peers:     []env.NodeID{100},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	key := core.Key{PID: core.RootDirID, Name: "d"}
	r.dir = core.DirRef{ID: core.DirID{9, 9, 9, 9}, Key: key, FP: key.Fingerprint()}
	r.s.storeInode(key, &core.Inode{ID: r.dir.ID, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
	return r
}

// logged appends a pending create to the directory's change-log, as handleMutate
// leaves it once the client has its answer.
func (r *flushRig) logged(id uint64, name string) {
	if r.dl == nil {
		r.dl = r.s.clogOf(r.dir)
	}
	r.dl.log.Append(core.LogEntry{ID: id, Time: 1, Op: core.OpCreate, Name: name, Type: core.TypeRegular, Perm: 0o644})
}

// flush delivers a coordinator's request for (the directory, name) to the
// server's handler.
func (r *flushRig) flush(p *env.Proc, name string) {
	r.s.handle(p, flushCoord, &wire.Packet{Dst: 100, Origin: flushCoord, Body: &wire.FlushEntryReq{
		CtlReq: wire.CtlReq{ID: 1, From: flushCoord}, Key: core.Key{PID: r.dir.ID, Name: name}}})
}

func (r *flushRig) listed() map[string]bool {
	got := map[string]bool{}
	prefix := core.EntryPrefix(r.dir.ID)
	r.s.kv.Scan(prefix, func(k, v []byte) bool {
		got[string(k[len(prefix):])] = true
		return true
	})
	return got
}

// TestFlushEntryTable drives the flush handler through every state it can
// meet the change-log in.
func TestFlushEntryTable(t *testing.T) {
	const rtt = 10 * env.Microsecond // generous bound on one loopback round trip and its handlers
	for _, c := range []struct {
		what       string
		setup      func(r *flushRig) // before the request arrives
		pushes     [][]uint64
		incomplete bool
		flushes    uint64 // RenameFlushes, RenameFlushPushes
		forced     uint64
		listed     []string
		pending    int
		after      env.Duration // the answer leaves no earlier …
		before     env.Duration // … and no later than this
		inserts    int
	}{
		{what: "no log for the directory: answers at once, sends nothing",
			setup: func(r *flushRig) {}, before: rtt},
		{what: "a log without the name: answers at once, sends nothing, keeps the log",
			setup: func(r *flushRig) { r.logged(1, "other") }, pending: 1, before: rtt},
		{what: "the name pending, no push in flight: one forced push of the whole log, one ack",
			setup:  func(r *flushRig) { r.logged(1, "other"); r.logged(2, "x") },
			pushes: [][]uint64{{1, 2}}, flushes: 1, forced: 1, listed: []string{"other", "x"}, before: 2 * rtt},
		{what: "the name logged behind an in-flight proactive push: shares it, the remainder follows, no timeout",
			setup: func(r *flushRig) {
				r.logged(1, "other")
				if !r.s.maybePush(r.dl) {
					t.Fatal("proactive push refused")
				}
				r.logged(2, "x")
			},
			pushes: [][]uint64{{1}, {2}}, flushes: 1, forced: 0, listed: []string{"other", "x"}, before: 3 * rtt},
		{what: "the in-flight push already carries the name: shares it, pushes nothing",
			setup: func(r *flushRig) {
				r.logged(1, "x")
				r.s.maybePush(r.dl)
			},
			pushes: [][]uint64{{1}}, flushes: 1, forced: 0, listed: []string{"x"}, before: 2 * rtt},
		{what: "an appender in flight under the shared lock: the barrier waits for it",
			setup: func(r *flushRig) {
				r.logged(6, "x")
				r.sim.Spawn(100, func(p *env.Proc) {
					r.dl.lock.RLock(p) // a mutation charging its commit
					p.Sleep(50 * env.Microsecond)
					r.logged(7, "late")
					r.dl.lock.RUnlock()
				})
			},
			pushes: [][]uint64{{6, 7}}, flushes: 1, forced: 1, listed: []string{"late", "x"},
			after: 50 * env.Microsecond, before: 50*env.Microsecond + 2*rtt},
		{what: "the directory's owner unreachable: incomplete once the push gave up, fingerprint marked dirty",
			setup:  func(r *flushRig) { r.logged(1, "x"); r.dropPush = true },
			pushes: [][]uint64{{1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}}, incomplete: true,
			flushes: 1, forced: 1, pending: 1, inserts: 1,
			after: 8 * 2 * env.Millisecond, before: 8*2*env.Millisecond + rtt},
	} {
		r := newFlushRig(t)
		r.sim.Spawn(100, func(p *env.Proc) {
			c.setup(r)
			p.Sleep(env.Microsecond) // the request arrives a moment after the state is set
			r.flush(p, "x")
		})
		r.sim.Run()
		if r.resp == nil {
			t.Errorf("%s: no answer", c.what)
			continue
		}
		if incomplete := r.resp.Err == core.ErrnoRetry; incomplete != c.incomplete {
			t.Errorf("%s: answered %v, want retry %v", c.what, r.resp.Err.Err(), c.incomplete)
		}
		if !reflect.DeepEqual(r.pushes, c.pushes) {
			t.Errorf("%s: pushes on the wire %v, want %v", c.what, r.pushes, c.pushes)
		}
		if st := r.s.Stats; st.RenameFlushes != c.flushes || st.RenameFlushPushes != c.forced {
			t.Errorf("%s: RenameFlushes %d RenameFlushPushes %d, want %d and %d",
				c.what, st.RenameFlushes, st.RenameFlushPushes, c.flushes, c.forced)
		}
		want := map[string]bool{}
		for _, name := range c.listed {
			want[name] = true
		}
		if got := r.listed(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the directory lists %v, want %v", c.what, got, want)
		}
		if got := r.s.PendingClogEntries(); got != c.pending {
			t.Errorf("%s: %d entries still pending, want %d", c.what, got, c.pending)
		}
		if r.dl != nil && len(r.dl.flushes) != 0 {
			t.Errorf("%s: %d flushes left waiting", c.what, len(r.dl.flushes))
		}
		if at := env.Duration(r.respAt); at < c.after || at > c.before {
			t.Errorf("%s: answered at %v, want within [%v, %v]", c.what, at, c.after, c.before)
		}
		if r.inserts != c.inserts {
			t.Errorf("%s: %d dirty-set inserts, want %d", c.what, r.inserts, c.inserts)
		}
		if r.s.busy[core.Key{PID: r.dir.ID, Name: "x"}.Fingerprint()] != 0 {
			t.Errorf("%s: the name's group is still busy", c.what)
		}
	}
}

// TestFlushAllMeetsInFlightPush starts a flush-all in the instant a proactive
// push of the same log is in flight, one entry behind it. The directory's
// owner is a stub that acknowledges every push through its largest id. Each
// acknowledgment trims the log whichever push it answers, so when FlushAll
// returns nothing is pending, and neither push retransmits, gives up (dirty
// mark) or reaches the owner once the flush is over — where every non-final
// push restarts the owner's quiesce timer, one aggregation per arrival.
func TestFlushAllMeetsInFlightPush(t *testing.T) {
	const owner env.NodeID = 101
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	var pushes, inserts, lateProactive int
	var flushedAt env.Time
	flushed := false
	sim.AddNode(1, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if ds := msg.(*wire.Packet).DS; ds != nil && ds.Op == wire.DSInsert {
			inserts++
		}
	}})
	sim.AddNode(owner, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		cp, ok := msg.(*wire.Packet).Body.(*wire.ChangePush)
		if !ok {
			return
		}
		pushes++
		if flushed && !cp.Final {
			lateProactive++
		}
		var maxID uint64
		for _, e := range cp.Log.Entries {
			maxID = max(maxID, e.ID)
		}
		p.Send(from, &wire.Packet{Dst: from, Origin: owner,
			Body: &wire.ChangePushAck{Dir: cp.Log.Dir.ID, MaxID: maxID}})
	}})
	s := New(sim, Config{ID: 100, Costs: env.DefaultCosts(),
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return owner }),
		Peers:     []env.NodeID{100, owner},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	key := core.Key{PID: core.RootDirID, Name: "d"}
	dl := s.clogOf(core.DirRef{ID: core.DirID{9, 9, 9, 9}, Key: key, FP: key.Fingerprint()})
	logged := func(id uint64) {
		dl.log.Append(core.LogEntry{ID: id, Time: 1, Op: core.OpCreate, Name: fmt.Sprint("f", id), Type: core.TypeRegular, Perm: 0o644})
	}
	pending := -1
	sim.Spawn(100, func(p *env.Proc) {
		logged(1)
		if !s.maybePush(dl) { // its process runs first in this instant
			t.Error("proactive push refused")
		}
		logged(2)
		p.Spawn(func(fp *env.Proc) {
			s.FlushAll(fp)
			pending, flushedAt, flushed = s.PendingClogEntries(), fp.Now(), true
		})
	})
	sim.Run()
	if !flushed {
		t.Fatal("FlushAll never returned")
	}
	got := []int{pushes, int(s.Stats.Retries), inserts, pending, lateProactive}
	if want := []int{2, 0, 0, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("pushes, retransmissions, dirty marks, pending at return, proactive pushes after it = %v, want %v", got, want)
	}
	if env.Duration(flushedAt) > 10*env.Microsecond {
		t.Errorf("FlushAll returned at %v, want within one round trip", flushedAt)
	}
}
