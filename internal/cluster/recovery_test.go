package cluster

import (
	"errors"
	"fmt"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/server"
	"switchfs/internal/trace"
	"switchfs/internal/wire"
)

// Tests of §5.4.2 recovery's three mechanisms at cluster level: a restarted
// owner releases the aggregations its predecessor died holding, requests that
// meet a recovering server are parked and served when it resumes, and the
// parked set dies with the incarnation.

// recoveryLoad is the closed loop of the crash tests: workers×ops creates
// spread over dirs directories the protocol built (so they are WAL-resident),
// every eighth operation a statdir — each one an aggregation at the owner,
// so a crash always finds some in flight. It returns the per-directory count
// of acknowledged creates once the simulation drained.
type recoveryLoad struct {
	dirs, workers, ops int
	created            []int64
	failed             []string
	finished           env.Time // when the last worker returned
}

func dirName(d int) string { return fmt.Sprintf("/w%02d", d) }

func (l *recoveryLoad) build(t *testing.T, s *env.Sim, c *Cluster) {
	t.Helper()
	for d := 0; d < l.dirs; d++ {
		d := d
		c.SpawnClient(d, func(p *env.Proc) {
			if err := c.Client(d).Mkdir(p, dirName(d), 0); err != nil {
				t.Errorf("mkdir %s: %v", dirName(d), err)
			}
		})
	}
	s.Run()
	c.SpawnClient(0, func(p *env.Proc) { c.Drain(p) })
	s.Run()
	l.created = make([]int64, l.dirs)
}

func (l *recoveryLoad) start(c *Cluster) {
	for w := 0; w < l.workers; w++ {
		w := w
		cl := c.Client(w)
		c.SpawnClient(w, func(p *env.Proc) {
			x := uint64(w)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < l.ops; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				d := int(x % uint64(l.dirs))
				if i%8 == 7 {
					if _, err := cl.StatDir(p, dirName(d)); err != nil {
						l.failed = append(l.failed, fmt.Sprintf("statdir %s: %v", dirName(d), err))
					}
					continue
				}
				// A create re-sent to the restarted server may find its own
				// first delivery committed: EEXIST on a name only this worker
				// uses is that acknowledgement.
				path := fmt.Sprintf("%s/c%d-%d", dirName(d), w, i)
				resent, err := cl.CreateR(p, path, 0)
				if err != nil && !(resent && errors.Is(err, core.ErrExist)) {
					l.failed = append(l.failed, fmt.Sprintf("create %s: %v", path, err))
					continue
				}
				l.created[d]++
			}
			l.finished = p.Now()
		})
	}
}

// checkSizes reads every directory back after a drain: each size is exactly
// the acknowledged creates — nothing lost, nothing applied twice.
func (l *recoveryLoad) checkSizes(t *testing.T, s *env.Sim, c *Cluster, what string) {
	t.Helper()
	for _, f := range l.failed {
		t.Errorf("%s: %s", what, f)
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		c.Drain(p)
		for d := 0; d < l.dirs; d++ {
			attr, err := cl.StatDir(p, dirName(d))
			if err != nil || attr.Size != l.created[d] {
				t.Errorf("%s: %s has size %d (err %v), want %d", what, dirName(d), attr.Size, err, l.created[d])
			}
		}
	})
}

// TestRecoveryDoesNotWaitOutDeadAggregation crashes a directory owner under
// 64 in-flight operations (+1 ms) and restarts it 4 ms later. Its peers still hold
// their change-logs locked for aggregations of the dead incarnation, and used
// to keep them locked for that aggregation's whole retry budget — 100 rounds
// of 2 ms — while the successor ignored their retransmitted entries: its own
// forced aggregation of the same directories blocked behind those locks, so
// recovery took 198 ms and every create into them stalled with it.
func TestRecoveryDoesNotWaitOutDeadAggregation(t *testing.T) {
	for _, seed := range []int64{1, 5, 9, 10} {
		s := env.NewSim(seed)
		c := New(s, Options{Servers: 8, Clients: 8, SwitchIndexBits: 12, Costs: env.DefaultCosts()})
		load := recoveryLoad{dirs: 64, workers: 64, ops: 110}
		load.build(t, s, c)
		what := fmt.Sprintf("seed %d", seed)

		start := s.Now()
		load.start(c)
		var rec *env.Future
		var restarted env.Time
		var held []string
		s.After(1*env.Millisecond, func() { c.CrashServer(1) })
		s.After(5*env.Millisecond, func() {
			restarted = s.Now()
			rec = c.RecoverServer(1)
		})
		s.After(7*env.Millisecond+100*env.Microsecond, func() {
			// One retransmission round (2 ms) after the restart every peer
			// has re-sent its entries and been released.
			for i, srv := range c.Servers {
				for _, id := range srv.HeldAggs() {
					if id>>40 == uint64(c.ServerID(1)) && id&(1<<40-1) <= uint64(restarted) {
						held = append(held, fmt.Sprintf("server %d by aggregation %#x", i, id))
					}
				}
			}
		})
		s.Run()

		if v, ok := rec.Peek(); !ok {
			t.Fatalf("%s: recovery did not complete", what)
		} else if d, isDur := v.(env.Duration); !isDur || d >= 5*env.Millisecond {
			t.Errorf("%s: recovery took %v, want < 5ms (it waited a dead aggregation out)", what, v)
		}
		if len(held) > 0 {
			t.Errorf("%s: change-logs still locked for the dead incarnation one retry round after its restart: %v", what, held)
		}
		if took := load.finished - start; took > 20*env.Millisecond {
			t.Errorf("%s: the load took %v of virtual time: creates stalled behind the recovery", what, took)
		}
		load.checkSizes(t, s, c, what)
		if st := c.Servers[1].Stats; st.RecoverRedoRecords == 0 || st.Parked == 0 {
			t.Errorf("%s: recovery replayed %d records and parked %d requests: the crash missed the load", what, st.RecoverRedoRecords, st.Parked)
		}
		s.Shutdown()
	}
}

// parkFixture is a four-server cluster whose server 1 has enough WAL-resident
// state for its redo to take about half a millisecond, one client that has
// /d cached, and names under /d whose file inode server 1 owns.
type parkFixture struct {
	s     *env.Sim
	c     *Cluster
	names []string
}

func newParkFixture(t *testing.T, opts Options) *parkFixture {
	t.Helper()
	opts.Servers, opts.Clients, opts.Costs = 4, 1, env.DefaultCosts()
	s, c := sim(t, opts)
	pl := NewPreload(c)
	pl.LogWAL = true
	// Directories server 1 does not own: it holds a quarter of the bulk
	// files' inodes, and only the create's own leg depends on it.
	var dirs []string
	for i := 0; len(dirs) < 2; i++ {
		if name := fmt.Sprintf("d%d", i); c.Ring.OwnerOfFile(core.RootDirID, name) != 1 {
			dirs = append(dirs, "/"+name)
		}
	}
	pl.Files(dirs[0], "f", 4000)
	dir := dirs[1]
	ref := pl.Dir(dir)
	f := &parkFixture{s: s, c: c}
	for i := 0; len(f.names) < 4; i++ {
		if name := fmt.Sprintf("x%d", i); c.Ring.OwnerOfFile(ref.ID, name) == 1 {
			f.names = append(f.names, dir+"/"+name)
		}
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if _, err := cl.StatDir(p, dir); err != nil {
			t.Fatalf("statdir %s: %v", dir, err)
		}
	})
	return f
}

// crashCreateRestart crashes server 1, issues a create that needs it 10 µs
// later, and restarts the server after 1.9 ms — so the create's first
// retransmission (+2 ms) lands inside the recovery. It returns when the
// create returned and when the recovery ended.
func (f *parkFixture) crashCreateRestart(t *testing.T, path string, during func()) (ret, recEnd env.Time) {
	t.Helper()
	f.c.CrashServer(1)
	f.c.SpawnClient(0, func(p *env.Proc) {
		p.Sleep(10 * env.Microsecond)
		if err := f.c.Client(0).Create(p, path, 0); err != nil {
			t.Errorf("create %s: %v", path, err)
		}
		ret = p.Now()
	})
	var rec *env.Future
	var restarted env.Time
	f.s.After(1900*env.Microsecond, func() {
		restarted = f.s.Now()
		rec = f.c.RecoverServer(1)
	})
	if during != nil {
		f.s.After(2200*env.Microsecond, during)
	}
	f.s.Run()
	v, _ := rec.Peek()
	if d, ok := v.(env.Duration); ok {
		recEnd = restarted + d
	} else {
		t.Fatalf("recovery: %v", v)
	}
	return ret, recEnd
}

func (f *parkFixture) wantEntries(t *testing.T, dir string, want int) {
	t.Helper()
	f.c.Run(0, func(p *env.Proc, cl *client.Client) {
		f.c.Drain(p)
		attr, err := cl.StatDir(p, dir)
		es, err2 := cl.ReadDir(p, dir)
		if err != nil || err2 != nil || attr.Size != int64(want) || len(es) != want {
			t.Errorf("%s: size %d, %d entries (%v, %v); want %d", dir, attr.Size, len(es), err, err2, want)
		}
	})
}

// TestParkedRequestsServedAtResume: a request that reaches a recovering
// server is held and served the moment recovery ends, instead of being
// dropped and completing on the client's next 2 ms retransmission tick.
func TestParkedRequestsServedAtResume(t *testing.T) {
	t.Run("served at the end of recovery, not on a tick", func(t *testing.T) {
		f := newParkFixture(t, Options{})
		path := f.names[0]
		ret, recEnd := f.crashCreateRestart(t, path, nil)
		if ret < recEnd || ret > recEnd+20*env.Microsecond {
			t.Errorf("blocked create returned at %v, recovery ended at %v: want within 20µs after it", ret, recEnd)
		}
		st := f.c.Servers[1].Stats
		if st.Parked != 1 || st.Ops != 1 {
			t.Errorf("parked %d requests, executed %d; want 1, 1", st.Parked, st.Ops)
		}
		if st.RecoverRedoUs < 300 {
			t.Errorf("redo took %d µs: too short for the retransmission to land inside recovery", st.RecoverRedoUs)
		}
		f.wantEntries(t, path[:len(path)-3], 1)
	})

	t.Run("traced: recovery is a background root, the op's wait ends at the release", func(t *testing.T) {
		rec := trace.New(trace.Config{Keep: 64})
		f := newParkFixture(t, Options{Trace: rec})
		_, recEnd := f.crashCreateRestart(t, f.names[0], nil)
		spans := assertWellShaped(t, rec)
		var attempt trace.Span
		for _, sp := range spans {
			if sp.Name == "recover" || sp.Parent == 0 && sp.Cat == "server" {
				t.Errorf("a recovery span among the operation traces: %+v", sp)
			}
			if sp.Name == "attempt" && sp.Start > attempt.Start {
				attempt = sp // the create's last transmission: the one that was parked
			}
		}
		if attempt.End < recEnd || attempt.End > recEnd+20*env.Microsecond {
			t.Errorf("the blocked create's attempt span ends at %v, recovery at %v: want the wait to end at the release", attempt.End, recEnd)
		}
		bg := rec.Background()
		var phases []string
		var sum env.Duration
		for _, sp := range bg[1:] {
			if sp.Parent == bg[0].ID {
				phases = append(phases, sp.Name)
				sum += sp.Dur()
			}
		}
		if len(bg) == 0 || bg[0].Name != "recover" || bg[0].End != recEnd ||
			fmt.Sprint(phases) != "[recover:redo recover:redeliver recover:aggregate recover:clone]" {
			t.Fatalf("background trace %+v with phases %v", bg, phases)
		}
		if gap := bg[0].Dur() - sum; gap < 0 || gap > 10*env.Microsecond {
			t.Errorf("the four phases cover %v of a %v recovery", sum, bg[0].Dur())
		}
	})

	t.Run("a duplicated parked create executes once", func(t *testing.T) {
		f := newParkFixture(t, Options{})
		f.s.Net().SetLink(f.c.ClientID(0), f.c.ServerID(1), env.LinkRule{Dup: 1, Jitter: 4 * env.Microsecond})
		path := f.names[1]
		f.crashCreateRestart(t, path, nil)
		st := f.c.Servers[1].Stats
		if st.Parked != 1 || st.ParkedSuperseded != 1 || st.Ops != 1 {
			t.Errorf("parked %d, superseded %d, executed %d; want 1, 1, 1", st.Parked, st.ParkedSuperseded, st.Ops)
		}
		f.s.Net().ClearLinks()
		f.wantEntries(t, path[:len(path)-3], 1)
	})

	t.Run("a crash during recovery discards the parked set", func(t *testing.T) {
		f := newParkFixture(t, Options{})
		path := f.names[2]
		var second *server.Server
		f.crashCreateRestart(t, path, func() {
			// Mid-recovery, the create parked: fail-stop again, restart 1 ms on.
			second = f.c.Servers[1]
			if second.Stats.Parked != 1 || second.Serving() {
				t.Errorf("at the second crash: parked %d, serving %v; want 1, false", second.Stats.Parked, second.Serving())
			}
			f.c.CrashServer(1)
			f.s.After(env.Millisecond, func() { f.c.RecoverServer(1) })
		})
		if second.Stats.Ops != 0 || second.Serving() {
			t.Errorf("the incarnation that crashed while recovering served %d requests (serving %v)", second.Stats.Ops, second.Serving())
		}
		if third := f.c.Servers[1]; third == second || !third.Serving() || third.Stats.Ops != 1 {
			t.Errorf("the third incarnation: serving %v, executed %d; want true, 1", third.Serving(), third.Stats.Ops)
		}
		f.wantEntries(t, path[:len(path)-3], 1)
	})

	t.Run("a failed Recover parks nothing and serves nothing", func(t *testing.T) {
		f := newParkFixture(t, Options{ClientMaxRetries: 3})
		if _, err := f.c.Servers[1].WAL().Append(99, []byte("unreplayable")); err != nil {
			t.Fatal(err)
		}
		f.c.CrashServer(1)
		rec := f.c.RecoverServer(1)
		f.c.Run(0, func(p *env.Proc, cl *client.Client) {
			if err := cl.Create(p, f.names[3], 0); !errors.Is(err, core.ErrTimeout) {
				t.Errorf("create against a server that failed to recover: %v, want a timeout", err)
			}
		})
		if v, _ := rec.Peek(); v == nil {
			t.Fatal("recovery did not complete")
		} else if _, isErr := v.(error); !isErr {
			t.Fatalf("recovery of an unreplayable log succeeded: %v", v)
		}
		srv := f.c.Servers[1]
		if srv.Serving() || !srv.Node().Down() || srv.Stats.Parked != 0 || srv.Stats.Ops != 0 {
			t.Errorf("after a failed Recover: serving %v, down %v, parked %d, executed %d",
				srv.Serving(), srv.Node().Down(), srv.Stats.Parked, srv.Stats.Ops)
		}
	})
}

// TestSyncCommitEndsAtFailStop crashes a Baseline-mode server (Fig. 14's
// synchronous commit) while a create it executes waits for the parent's owner
// to acknowledge the update — every acknowledgment to it is lost until the
// restart — and then restarts it and drains. Once the successor holds the node
// id, the fail-stopped incarnation must send nothing: a commit that kept
// retransmitting would keep the simulation from ever coming to rest.
func TestSyncCommitEndsAtFailStop(t *testing.T) {
	s := env.NewSim(7)
	t.Cleanup(s.Shutdown)
	c := New(s, Options{Servers: 4, Clients: 1, SwitchIndexBits: 8, Costs: env.DefaultCosts(),
		Updates: server.UpdateSync})
	pl := NewPreload(c)
	pl.LogWAL = true
	// A directory server 1 does not own, and a name in it whose inode it does.
	var dir, path string
	for i := 0; dir == ""; i++ {
		if name := fmt.Sprintf("d%d", i); c.Ring.OwnerOfFile(core.RootDirID, name) != 1 {
			dir = "/" + name
		}
	}
	ref := pl.Dir(dir)
	for i := 0; path == ""; i++ {
		if name := fmt.Sprintf("x%d", i); c.Ring.OwnerOfFile(ref.ID, name) == 1 {
			path = dir + "/" + name
		}
	}
	victim := c.Servers[1].ID()
	restarted := false
	crashed := map[uint64]bool{} // commit ids the crashed incarnation sent
	late := 0                    // its notices sent after the restart
	s.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
		switch b := msg.(*wire.Packet).Body.(type) {
		case *wire.CommitAck:
			if to == victim && !restarted {
				return env.Drop
			}
		case *wire.CommitNotice:
			if from != victim {
				break
			}
			if !restarted {
				crashed[b.CommitID] = true
			} else if crashed[b.CommitID] {
				late++
			}
		}
		return env.Pass
	}
	c.SpawnClient(0, func(p *env.Proc) { c.Client(0).Create(p, path, 0) })
	s.After(3*env.Millisecond, func() { c.CrashServer(1) }) // after one retransmission
	var rec *env.Future
	s.After(4*env.Millisecond, func() { restarted, rec = true, c.RecoverServer(1) })
	drained := false
	c.SpawnClient(0, func(p *env.Proc) {
		p.Sleep(5 * env.Millisecond)
		rec.Wait(p)
		c.Drain(p)
		drained = true
		p.Sleep(20 * env.Millisecond) // every fail-stopped wait would have retransmitted by now
		s.Stop()
	})
	s.Run()
	if len(crashed) == 0 {
		t.Fatal("no synchronous commit was in flight at the crash")
	}
	if !drained {
		t.Fatal("Drain did not return")
	}
	if late != 0 {
		t.Errorf("the fail-stopped incarnation sent %d commit notices after its successor started", late)
	}
}
