package server

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/rpc"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// loadWALs reads testdata/faulty_run.wal: the four servers' logs of a short
// faulty cluster run (three clients creating, deleting, renaming files and
// directories, linking, chmod-ing; duplicating links, one group migration,
// server 1 crashed and recovered), snapshotted mid-activity so every record
// kind is present and commits, prepares and one decision are still unapplied.
// Format: per server a big-endian u32 record count, then per record kind,
// applied flag, u32 payload length, payload.
func loadWALs(t testing.TB) []*wal.Mem {
	t.Helper()
	b, err := os.ReadFile("testdata/faulty_run.wal")
	if err != nil {
		t.Fatal(err)
	}
	var logs []*wal.Mem
	for len(b) > 0 {
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		log := wal.NewMem()
		for ; n > 0; n-- {
			kind, applied, size := b[0], b[1] == 1, binary.BigEndian.Uint32(b[2:])
			lsn, _ := log.Append(kind, b[6:6+size])
			if applied {
				log.MarkApplied(lsn)
			}
			b = b[6+size:]
		}
		logs = append(logs, log)
	}
	return logs
}

// replayDump is everything replayWAL rebuilds, in one canonical string.
func replayDump(s *Server) string {
	var sb strings.Builder
	s.kv.Scan(nil, func(k, v []byte) bool {
		fmt.Fprintf(&sb, "kv %x=%x\n", k, v)
		return true
	})
	for _, dl := range sortedClogs(nil, s.clogs) {
		fmt.Fprintf(&sb, "clog %+v %+v\n", dl.ref, dl.log.Snapshot())
		ids := make([]uint64, 0, len(dl.walLSN))
		for id := range dl.walLSN {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			fmt.Fprintf(&sb, " lsn %d=%d\n", id, dl.walLSN[id])
		}
	}
	var marks []string
	for k, v := range s.applied {
		marks = append(marks, fmt.Sprintf("applied %v/%d=%d\n", k.dir, k.src, v))
	}
	sort.Strings(marks)
	sb.WriteString(strings.Join(marks, ""))
	fmt.Fprintf(&sb, "inval %+v\nredrive %+v\nrearm %+v\n", s.inval, s.txnRedrive, s.txnRearm)
	return sb.String()
}

// newReplayServer is a one-server deployment over log with the calibrated
// service times and the given core count.
func newReplayServer(t testing.TB, log wal.Log, cores int) (*env.Sim, *Server) {
	t.Helper()
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	s := New(sim, Config{ID: 100, Cores: cores, Costs: env.DefaultCosts(), WAL: log,
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return 100 }),
		Peers:     []env.NodeID{100},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	return sim, s
}

// TestReplayEquivalence pins what the redo pass rebuilds: the store, the
// change-logs with their WAL positions, the watermarks, the invalidation list
// and the 2PC re-arm and redrive lists are those the sequential replay of PR
// 21 produced from the same four logs (digests of this very dump).
func TestReplayEquivalence(t *testing.T) {
	golden := []struct {
		records int
		sha     string
	}{
		{90, "6c0494886bc6a814d3d3eb9fbadf46d7e352d5ef1d9c2fb6855e72c1f93f23b5"},
		{51, "ba923527f2d11b88986e540ea93c08e13f118facc2f610dc62357691a92bbc50"},
		{50, "50711dc4539520a86f7a982a5084e10884cc131b45783234814d7ff13de749f7"},
		{38, "29f1586e4e697a5d75b6867fe39adf14ef21dd5190b25b78e5dbc0509b12ffd3"},
	}
	logs := loadWALs(t)
	if len(logs) != len(golden) {
		t.Fatalf("%d logs in testdata, want %d", len(logs), len(golden))
	}
	kinds := map[uint8]bool{}
	for i, log := range logs {
		_, s := newReplayServer(t, log, 4)
		plan, err := s.replayWAL()
		if err != nil {
			t.Fatalf("log %d: %v", i, err)
		}
		if n := planRecords(&plan); n != golden[i].records || log.Len() != n {
			t.Errorf("log %d: plan covers %d of %d records, want %d", i, n, log.Len(), golden[i].records)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(replayDump(s)))); got != golden[i].sha {
			t.Errorf("log %d replays to a different state: digest %s, want %s", i, got, golden[i].sha)
		}
		log.Replay(func(r wal.Record) error { kinds[r.Kind] = true; return nil })
	}
	for _, k := range []uint8{recCommit, recAggEntry, recInode, recDentry, recDelDentries, recMark, recTxnCommit, recTxnPrepare, recEvict} {
		if !kinds[k] {
			t.Errorf("testdata holds no record of kind %d", k)
		}
	}
}

// planRecords is the number of records a plan charges.
func planRecords(p *redoPlan) (n int) {
	for _, lanes := range p.sections {
		for _, k := range lanes {
			n += k
		}
	}
	return n
}

// redoRecords builds payloads for the lane tests through the real encoders.
type redoRecords struct{ log *wal.Mem }

func (r redoRecords) commit(dir core.DirRef, name string) {
	e := core.LogEntry{ID: uint64(r.log.Len() + 1), Op: core.OpCreate, Name: name, Type: core.TypeRegular}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Nlink: 1}}
	mustAppend(r.log, recCommit, encodeCommit(nil, core.OpCreate, core.Key{PID: dir.ID, Name: name}, dir, e, in))
}

func (r redoRecords) aggEntry(src env.NodeID, dir core.DirRef, name string) {
	e := core.LogEntry{ID: uint64(r.log.Len() + 1), Op: core.OpCreate, Name: name, Type: core.TypeRegular}
	mustAppend(r.log, recAggEntry, encodeAggEntry(nil, src, dir, e))
}

func (r redoRecords) inode(key core.Key) {
	mustAppend(r.log, recInode, encodeInodeRec(nil, key, &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Nlink: 1}}))
}

func (r redoRecords) dentry(dir core.DirID, name string) {
	mustAppend(r.log, recDentry, encodeDentryRec(nil, dir, name, true, core.TypeRegular, 0o644))
}

func (r redoRecords) delDentries(dir core.DirID) {
	mustAppend(r.log, recDelDentries, dir.AppendBinary(nil))
}

func (r redoRecords) txnCommit(txn uint64) { mustAppend(r.log, recTxnCommit, u64(nil, txn)) }

// TestRedoLanes is the table test of the redo charge: which lane a record
// takes is a pure function of the key it writes, records that span keys are
// serial barriers, and the pass costs its longest lane.
func TestRedoLanes(t *testing.T) {
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	name := func(i int) string { return fmt.Sprintf("f%03d", i) }

	t.Run("pure and per-key order kept", func(t *testing.T) {
		// The same keys written in two different interleavings, with other
		// records in between, load the lanes identically; and every record of
		// one key sits on one lane whatever kind it is.
		build := func(order []int, noise bool) []int {
			r := redoRecords{wal.NewMem()}
			for _, i := range order {
				r.commit(dir, name(i))
				if noise {
					r.inode(core.Key{PID: dir.ID, Name: name(i)})
				}
			}
			_, s := newReplayServer(t, r.log, 4)
			plan, err := s.replayWAL()
			if err != nil || len(plan.sections) != 1 {
				t.Fatalf("plan %+v, err %v", plan, err)
			}
			return plan.sections[0]
		}
		fwd, rev := []int{}, []int{}
		for i := 0; i < 64; i++ {
			fwd = append(fwd, i)
			rev = append(rev, 63-i)
		}
		a, b, c := build(fwd, false), build(rev, false), build(fwd, true)
		for l := range a {
			if a[l] != b[l] {
				t.Errorf("lane %d carries %d records in one order, %d in the other", l, a[l], b[l])
			}
			if c[l] != 2*a[l] {
				t.Errorf("lane %d: a key's commit and inode records split across lanes (%d, want %d)", l, c[l], 2*a[l])
			}
			if a[l] == 0 {
				t.Errorf("lane %d empty: 64 keys did not spread over 4 lanes: %v", l, a)
			}
		}
	})

	t.Run("dentry and aggregation entry share the (directory, name) lane", func(t *testing.T) {
		for i := 0; i < 16; i++ {
			r := redoRecords{wal.NewMem()}
			r.dentry(dir.ID, name(i))
			r.aggEntry(200, dir, name(i))
			r.aggEntry(201, dir, name(i))
			_, s := newReplayServer(t, r.log, 4)
			s.storeInode(dir.Key, &core.Inode{ID: dir.ID, Attr: core.Attr{Type: core.TypeDir}})
			plan, _ := s.replayWAL()
			if plan.longest() != 3 {
				t.Fatalf("name %d: three records of one entry spread over lanes %v", i, plan.sections)
			}
		}
	})

	t.Run("barriers are serial", func(t *testing.T) {
		r := redoRecords{wal.NewMem()}
		for i := 0; i < 40; i++ {
			r.commit(dir, name(i))
		}
		r.delDentries(dir.ID)
		r.txnCommit(9)
		for i := 40; i < 80; i++ {
			r.commit(dir, name(i))
		}
		_, s := newReplayServer(t, r.log, 4)
		plan, err := s.replayWAL()
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.sections) != 3 || plan.sections[1][0] != 2 {
			t.Fatalf("sections %v: want parallel, one serial run of 2, parallel", plan.sections)
		}
		want := 2
		for _, i := range []int{0, 2} {
			m, sum := 0, 0
			for _, k := range plan.sections[i] {
				m, sum = max(m, k), sum+k
			}
			if sum != 40 {
				t.Errorf("section %d holds %d records, want 40", i, sum)
			}
			want += m
		}
		if plan.longest() != want || planRecords(&plan) != 82 {
			t.Errorf("longest %d of %d records, want %d of 82", plan.longest(), planRecords(&plan), want)
		}
	})

	t.Run("charge is the longest lane", func(t *testing.T) {
		each := env.DefaultCosts().WALReplay
		for _, c := range []struct {
			what  string
			cores int
			fill  func(r redoRecords)
			want  func(p *redoPlan) int // records on the critical path
		}{
			{"one core pays every record", 1, func(r redoRecords) {
				for i := 0; i < 100; i++ {
					r.commit(dir, name(i))
				}
				r.delDentries(dir.ID)
			}, func(*redoPlan) int { return 101 }},
			{"one hot key gets no speed-up", 4, func(r redoRecords) {
				for i := 0; i < 100; i++ {
					r.inode(core.Key{PID: dir.ID, Name: "hot"})
				}
			}, func(*redoPlan) int { return 100 }},
			{"spread keys pay the longest lane", 4, func(r redoRecords) {
				for i := 0; i < 400; i++ {
					r.commit(dir, name(i))
				}
			}, func(p *redoPlan) int {
				if l := p.longest(); l < 100 || l > 130 {
					t.Errorf("400 keys over 4 lanes: longest lane %d, want about 100", l)
				}
				return p.longest()
			}},
		} {
			r := redoRecords{wal.NewMem()}
			c.fill(r)
			sim, s := newReplayServer(t, r.log, c.cores)
			var took env.Duration
			sim.Spawn(100, func(p *env.Proc) {
				plan, err := s.replayWAL()
				if err != nil {
					t.Error(err)
				}
				start := p.Now()
				for _, lanes := range plan.sections {
					burnLanes(p, lanes, each)
				}
				took = p.Now() - start
				if want := env.Duration(c.want(&plan)) * each; took != want {
					t.Errorf("%s: redo took %v, want %v", c.what, took, want)
				}
			})
			sim.Run()
		}
	})
}

// TestRecoverChargesLongestLane drives Recover itself on a one-server Sim:
// the redo phase costs longest lane × WALReplay, the counters say so, and a
// one-core server pays today's n × WALReplay.
func TestRecoverChargesLongestLane(t *testing.T) {
	for _, cores := range []int{1, 4} {
		log := loadWALs(t)[0]
		sim, s := newReplayServer(t, log, cores)
		s.Crash()
		r := Restart(sim, s.cfg, log)
		sim.Spawn(100, func(p *env.Proc) {
			if err := r.Recover(p); err != nil {
				t.Error(err)
			}
		})
		sim.Run()
		st := r.Stats
		each := uint64(env.DefaultCosts().WALReplay)
		if st.RecoverRedoRecords != 90 || st.RecoverRedoUs != st.RecoverRedoLongestLane*each/1000 {
			t.Errorf("%d cores: redo %d µs for %d records, longest lane %d", cores, st.RecoverRedoUs, st.RecoverRedoRecords, st.RecoverRedoLongestLane)
		}
		if cores == 1 && st.RecoverRedoLongestLane != 90 {
			t.Errorf("one core: %d records on the critical path, want all 90", st.RecoverRedoLongestLane)
		}
		if cores == 4 && st.RecoverRedoLongestLane >= 90 {
			t.Errorf("four cores: no redo speed-up (%d of 90 records on the critical path)", st.RecoverRedoLongestLane)
		}
		if !r.Serving() {
			t.Errorf("%d cores: not serving after Recover", cores)
		}
	}
}

// TestRecoverErrorFailStops: a log that cannot be replayed leaves the server
// fail-stopped — nothing parked, nothing serving, node down.
func TestRecoverErrorFailStops(t *testing.T) {
	log := wal.NewMem()
	mustAppend(log, 99, []byte("not a record"))
	sim, s := newReplayServer(t, log, 4)
	var err error
	sim.Spawn(100, func(p *env.Proc) { err = s.Recover(p) })
	sim.Run()
	if err == nil {
		t.Fatal("Recover replayed an unknown record kind")
	}
	if s.Serving() || !s.node.Down() || len(s.parked) != 0 {
		t.Fatalf("after a failed Recover: serving=%v down=%v parked=%d", s.Serving(), s.node.Down(), len(s.parked))
	}
	s.handle(nil, 9000, &wire.Packet{Body: &wire.LookupReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: 9000}}})
	if len(s.parked) != 0 {
		t.Fatal("a fail-stopped server parked a request")
	}
}

// restartedAt builds owner's incarnation booted at virtual time boot, with
// peer as its one peer: a restarted server, whose ids start above zero.
func restartedAt(t *testing.T, sim *env.Sim, boot env.Duration, owner, peer env.NodeID) *Server {
	t.Helper()
	var s *Server
	sim.After(boot, func() {
		s = New(sim, Config{ID: owner,
			Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return owner }),
			Peers:     []env.NodeID{owner, peer},
			SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	})
	sim.Run()
	return s
}

// TestCloneInvalNumbersAbovePredecessor: a restarted server clones its peer's
// invalidation list one entry per directory, so it counts fewer entries than
// its predecessor did for a directory invalidated twice. A client that
// consumed the predecessor's entries through sequence 2 must still find the
// successor's next invalidation stale, and be shipped it.
func TestCloneInvalNumbersAbovePredecessor(t *testing.T) {
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	const owner, peer env.NodeID = 100, 101
	d, x := core.DirID{1, 2, 3, 4}, core.DirID{5, 6, 7, 8}
	sim.AddNode(peer, env.NodeConfig{Cores: 1, Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if req, ok := msg.(*wire.Packet).Body.(*wire.CloneInvalReq); ok {
			p.Send(from, &wire.Packet{Dst: from, Origin: peer, Body: &wire.CloneInvalResp{CtlResp: wire.CtlResp{ID: req.ID},
				Entries: []wire.InvalEntry{{Seq: 1, Dir: d}, {Seq: 2, Dir: d}}}})
		}
	}})
	s := restartedAt(t, sim, 5*env.Millisecond, owner, peer)
	sim.Spawn(owner, s.cloneInval)
	sim.Run()
	if _, ok := s.invalSet[d]; !ok {
		t.Fatal("the peer's list was not cloned")
	}
	s.addInval(x)

	req := &wire.ReqCommon{InvalSeq: 2, Ancestors: []core.DirID{x}}
	if err := s.checkAncestors(req); !errors.Is(err, core.ErrStaleCache) {
		t.Errorf("an ancestor invalidated after the restart passed a client at sequence 2: %v", err)
	}
	if rc := s.respCommon(req, nil); !slices.ContainsFunc(rc.Inval, func(e wire.InvalEntry) bool { return e.Dir == x }) {
		t.Errorf("a response to a client at sequence 2 shipped %+v, without the new invalidation", rc.Inval)
	}
}

// TestHandleAggEntriesTable covers the four answers an AggEntries can get.
func TestHandleAggEntriesTable(t *testing.T) {
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	const owner, peer env.NodeID = 100, 101
	var acks []*wire.AggAck
	sim.AddNode(peer, env.NodeConfig{Cores: 1, Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if a, ok := msg.(*wire.Packet).Body.(*wire.AggAck); ok {
			acks = append(acks, a)
		}
	}})
	const boot = 5 * env.Millisecond
	s := restartedAt(t, sim, boot, owner, peer)

	// Ids the predecessors issued: an early one, and the last one a
	// predecessor booted a nanosecond before this incarnation can have issued.
	early := core.NewIncarnation(uint64(owner), 0)
	last := core.NewIncarnation(uint64(owner), uint64(boot-1))
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	logs := []wire.DirLog{{Dir: dir, Entries: []core.LogEntry{{ID: 3, Op: core.OpCreate, Name: "x"}}}}
	active := &aggCtx{Awaiting: rpc.Awaiting{Expect: []env.NodeID{peer}}, id: s.ids.Next(), fp: dir.FP}
	s.aggs[active.id] = active
	remembered := wire.AggAck{AggID: s.ids.Next(), FP: dir.FP, MaxIDs: []wire.DirMax{{Dir: dir.ID, MaxID: 3}}}
	s.aggAcks.Put(remembered.AggID, []peerAck{{peer: peer, ack: remembered}})

	for _, c := range []struct {
		what     string
		id       uint64
		wantAck  bool
		wantMax  uint64
		released uint64
	}{
		{"a predecessor's id: empty ack, the peer keeps its entries", early.Next(), true, 0, 1},
		{"the last id a predecessor can have issued", last.Next(), true, 0, 2},
		{"an id in aggs: collected, no ack yet", active.id, false, 0, 2},
		{"an id in aggAcks: the remembered ack again", remembered.AggID, true, 3, 2},
		{"an unknown id of this incarnation: ignored", s.ids.Next(), false, 0, 2},
	} {
		acks = nil
		sim.Spawn(owner, func(p *env.Proc) {
			s.handleAggEntries(p, nil, &wire.AggEntries{AggID: c.id, FP: dir.FP, From: peer, Logs: logs})
		})
		sim.Run()
		if got := len(acks) == 1; got != c.wantAck {
			t.Fatalf("%s: %d acks", c.what, len(acks))
		}
		if c.wantAck && (acks[0].AggID != c.id || maxIDOf(acks[0], dir.ID) != c.wantMax) {
			t.Errorf("%s: ack %+v", c.what, acks[0])
		}
		if s.Stats.AggReleased != c.released {
			t.Errorf("%s: agg_released %d, want %d", c.what, s.Stats.AggReleased, c.released)
		}
	}
	if _, done := active.Done.Peek(); !done || len(active.logs) != 1 {
		t.Errorf("the active aggregation did not collect its peer's log: %+v", active)
	}
}

// maxIDOf returns the largest id a acknowledges of dir (0: none).
func maxIDOf(a *wire.AggAck, dir core.DirID) uint64 {
	for _, m := range a.MaxIDs {
		if m.Dir == dir {
			return m.MaxID
		}
	}
	return 0
}

// BenchmarkRecover is the recovery layer benchmark (`make bench-layers`):
// Restart + Recover of a 4 096-record mixed WAL on a one-server Sim.
func BenchmarkRecover(b *testing.B) {
	const records = 4096
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	log := wal.NewMem()
	r := redoRecords{log}
	r.inode(dir.Key)
	for i := 0; log.Len() < records; i++ {
		name := fmt.Sprintf("file-%06d", i)
		switch i % 8 {
		case 0, 1, 2:
			r.commit(dir, name)
			log.MarkApplied(wal.LSN(log.Len()))
		case 3, 4, 5:
			r.aggEntry(200+env.NodeID(i%3), dir, name)
		case 6:
			r.dentry(dir.ID, name)
		case 7:
			r.inode(core.Key{PID: dir.ID, Name: name})
			if i%512 == 7 {
				r.txnCommit(uint64(i))
				log.MarkApplied(wal.LSN(log.Len()))
			}
		}
	}
	var virtual env.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, s := newReplayServer(b, wal.NewMem(), 4)
		s.Crash()
		srv := Restart(sim, s.cfg, log)
		sim.Spawn(100, func(p *env.Proc) {
			start := p.Now()
			if err := srv.Recover(p); err != nil {
				b.Error(err)
			}
			virtual = p.Now() - start
		})
		sim.Run()
		sim.Shutdown()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/records, "allocs/record")
	b.ReportMetric(float64(virtual)/1e3, "virtual-us")
}

// TestFailStopEndsPeerAggregation: an incarnation that fail-stops while it
// answers an aggregation fetch — its owner silent, the change-log locked —
// leaves the retry loop at its next timeout: no process of it is alive one
// RetryTimeout after the crash, where it used to spin its hundred silent
// rounds (200 ms of virtual time every crash run had to drain).
func TestFailStopEndsPeerAggregation(t *testing.T) {
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	const peer, owner env.NodeID = 100, 101
	replies := 0
	sim.AddNode(owner, env.NodeConfig{Cores: 1, Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if _, ok := msg.(*wire.Packet).Body.(*wire.AggEntries); ok {
			replies++ // never acknowledged
		}
	}})
	s := New(sim, Config{ID: peer,
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return owner }),
		Peers:     []env.NodeID{peer, owner},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	s.clogOf(dir).log.Append(core.LogEntry{ID: 1, Op: core.OpCreate, Name: "x"})

	const crashAt = 3 * env.Millisecond
	sim.Spawn(peer, func(p *env.Proc) {
		s.handleAggFetch(p, nil, &wire.AggFetch{AggID: 7, FP: dir.FP, Owner: owner})
	})
	sim.After(crashAt, s.Crash)
	end := sim.Run()
	if replies != 2 {
		t.Errorf("%d replies reached the owner, want the first and one retransmission before the crash", replies)
	}
	if limit := crashAt + s.cfg.RetryTimeout; end > limit {
		t.Errorf("the simulation drained at %v: the dead incarnation was still running after %v", end, limit)
	}
	if s.clogs[dir.ID].log.Len() != 1 {
		t.Error("the abandoned aggregation trimmed the change-log")
	}
}
