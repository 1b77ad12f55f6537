package server

import (
	"fmt"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wire"
)

// scatteredRead serves a statdir of dir whose dirty-set query came back
// scattered, as the switch annotates it; the reply goes to a client node
// that is not registered and is dropped.
func scatteredRead(s *Server, p *env.Proc, dir core.DirRef, rpc uint64) {
	req := &wire.DirReadReq{ReqCommon: wire.ReqCommon{RPC: rpc, Client: 9000}, Op: core.OpStatDir, Dir: dir}
	s.handleDirRead(p, &wire.Packet{Dst: s.cfg.ID, Origin: 9000, DS: &wire.DSHeader{FP: dir.FP, Ret: true}, Body: req}, req)
}

// TestScatteredReadsJoinAggregation: three scattered reads of one group, the
// second and third arriving while the first one's aggregation is in flight,
// run two aggregations. The first, arriving at virtual time 0, runs its own
// (a group that never aggregated is covered by nothing) and covers none of
// the later arrivals; the second starts after both arrived, so the third
// joins it. Each read calls
// aggregateFP as handleDirRead does for a scattered group, without the read
// tally, which would keep the group in the table by itself.
func TestScatteredReadsJoinAggregation(t *testing.T) {
	r := newAggOwnerRig(t, 0, env.DefaultCosts(), 3)
	s := r.s
	s.storeInode(r.dir.Key, &core.Inode{ID: r.dir.ID, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
	var during, complete [3]bool
	if now := r.sim.Now(); now != 0 {
		t.Fatalf("rig booted at %d, want 0: the first read must arrive at virtual time 0", now)
	}
	for i, at := range []env.Duration{0, env.Microsecond, 2 * env.Microsecond} {
		r.sim.SpawnAfter(aggOwner, at, func(p *env.Proc) {
			during[i] = !s.AggsQuiescent()
			complete[i] = s.aggregateFP(p, r.dir.FP, nil)
		})
	}
	r.sim.Run()
	if during != [3]bool{false, true, true} {
		t.Fatalf("reads arrived during an aggregation: %v, want the second and third", during)
	}
	if complete != [3]bool{true, true, true} || s.Stats.Aggregations != 2 {
		t.Fatalf("%d aggregations for three reads (complete %v), want 2, all complete", s.Stats.Aggregations, complete)
	}
	if !s.AggsQuiescent() || len(s.groups) != 0 {
		t.Fatalf("after the run: quiescent %v, %d groups; want quiescent, none", s.AggsQuiescent(), len(s.groups))
	}
}

// TestGateWaitersAllReturn: two requests parked on one group's arrival gate
// both return, admitted, when UnblockFP releases it.
func TestGateWaitersAllReturn(t *testing.T) {
	r := newAggOwnerRig(t, 0, env.DefaultCosts())
	s := r.s
	s.BlockFP(r.dir.FP)
	var back [2]env.Time
	var errs [2]error
	for i := range back {
		back[i] = -1
		r.sim.SpawnAfter(aggOwner, env.Duration(i+1)*env.Microsecond, func(p *env.Proc) {
			errs[i] = s.gateWait(p, r.dir.FP)
			back[i] = p.Now()
		})
	}
	r.sim.SpawnAfter(aggOwner, 10*env.Microsecond, func(*env.Proc) { s.UnblockFP(r.dir.FP) })
	r.sim.Run()
	want := 10 * env.Microsecond
	if back != [2]env.Time{want, want} || errs != [2]error{} {
		t.Fatalf("gate waiters returned at %v with %v, want both at %d with no error", back, errs, want)
	}
}

// TestEvictedGroupKeepsChangeLogs: a server whose group migrated away keeps
// the change-logs it holds for the group's directories, so the new owner's
// aggregation still collects them. Only the owner-side state of the group
// leaves with EvictMigrated.
func TestEvictedGroupKeepsChangeLogs(t *testing.T) {
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	const a, b, sw env.NodeID = 100, 101, 1
	rg := ring.New([]uint32{0, 1}, 0, func(slot uint32) env.NodeID { return a + env.NodeID(slot) })
	dir := core.DirRef{ID: core.DirID{1, 2, 3, 4}, Key: core.Key{PID: core.RootDirID, Name: "d"}}
	dir.FP = dir.Key.Fingerprint()
	rg.SetOverride(dir.FP, 0)
	peers := []env.NodeID{a, b}
	// The switch stub multicasts a remove's fetch to every server but its
	// origin.
	sim.AddNode(sw, env.NodeConfig{Handler: func(p *env.Proc, _ env.NodeID, msg any) {
		pkt := msg.(*wire.Packet)
		if pkt.DS == nil || pkt.DS.Op != wire.DSRemove {
			return
		}
		for _, n := range peers {
			if n != pkt.Origin {
				p.Send(n, &wire.Packet{Dst: n, Origin: pkt.Origin, Body: pkt.Body})
			}
		}
	}})
	srv := map[env.NodeID]*Server{}
	for _, id := range peers {
		srv[id] = New(sim, Config{ID: id, Ring: rg, Peers: peers, SwitchFor: func(core.Fingerprint) env.NodeID { return sw }})
	}
	in := &core.Inode{ID: dir.ID, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}}
	srv[a].InjectInode(dir.Key, in, true)

	// a logged a create into the directory it owns, then the group moves to b.
	dl := srv[a].clogOf(dir)
	dl.log.Append(core.LogEntry{ID: srv[a].ids.Next(), Op: core.OpCreate, Name: "f", Type: core.TypeRegular, Perm: core.DefaultFilePerm})
	rg.SetOverride(dir.FP, 1)
	srv[b].InjectInode(dir.Key, in, true)
	srv[a].EvictMigrated(dir.FP)

	complete := false
	sim.Spawn(b, func(p *env.Proc) { complete = srv[b].aggregateFP(p, dir.FP, &aggOpts{force: true}) })
	sim.Run()
	if !complete {
		t.Fatal("the new owner's aggregation did not complete")
	}
	if n := srv[b].kv.CountPrefix(core.EntryPrefix(dir.ID)); n != 1 {
		t.Fatalf("the new owner lists %d entries, want the evicted server's logged create", n)
	}
	if n := dl.log.Len(); n != 0 {
		t.Fatalf("the evicted server still holds %d entries after the ack", n)
	}
}

// TestIdleGroupsReleased: an owner that served scattered statdirs over 256
// directories, each aggregating a peer's entry, holds no group state once it
// went quiet and the balancer's pass cleared the read tallies.
func TestIdleGroupsReleased(t *testing.T) {
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	const owner, peer, sw env.NodeID = 100, 101, 1
	dirs := make(map[core.Fingerprint]core.DirRef)
	sim.AddNode(sw, env.NodeConfig{Handler: func(p *env.Proc, _ env.NodeID, msg any) {
		if pkt := msg.(*wire.Packet); pkt.DS != nil && pkt.DS.Op == wire.DSRemove {
			p.Send(peer, &wire.Packet{Dst: peer, Origin: pkt.Origin, Body: pkt.Body})
		}
	}})
	// The peer answers each fetch with one create into the group's directory.
	sim.AddNode(peer, env.NodeConfig{Cores: 1, Handler: func(p *env.Proc, _ env.NodeID, msg any) {
		if f, ok := msg.(*wire.Packet).Body.(*wire.AggFetch); ok {
			l := wire.DirLog{Dir: dirs[f.FP], Entries: []core.LogEntry{{ID: 1, Op: core.OpCreate, Name: "f", Type: core.TypeRegular}}}
			p.Send(owner, &wire.Packet{Dst: owner, Origin: peer, Body: &wire.AggEntries{AggID: f.AggID, FP: f.FP, From: peer, Logs: []wire.DirLog{l}}})
		}
	}})
	s := New(sim, Config{ID: owner, Costs: env.DefaultCosts(),
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return owner }),
		Peers:     []env.NodeID{owner, peer},
		SwitchFor: func(core.Fingerprint) env.NodeID { return sw }})
	for i := range 256 {
		d := core.DirRef{ID: core.DirID{1, 2, 3, uint64(i + 1)}, Key: core.Key{PID: core.RootDirID, Name: fmt.Sprintf("d%d", i)}}
		d.FP = d.Key.Fingerprint()
		dirs[d.FP] = d
		s.storeInode(d.Key, &core.Inode{ID: d.ID, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
		sim.SpawnAfter(owner, env.Duration(i+1)*env.Microsecond, func(p *env.Proc) { scatteredRead(s, p, d, uint64(i+1)) })
	}
	sim.Run()
	if s.Stats.Aggregations != 256 || s.Stats.AggEntries != 256 {
		t.Fatalf("%d aggregations applied %d entries, want 256 of each", s.Stats.Aggregations, s.Stats.AggEntries)
	}
	// Only the read tallies are left, until the balancer's pass clears them.
	if n, tallied := len(s.groups), len(s.FPOps()); n != 256 || tallied != 256 {
		t.Fatalf("quiet: %d groups, %d tallied, want the 256 tallied groups alone", n, tallied)
	}
	s.ResetFPOps()
	if n := len(s.groups); n != 0 {
		t.Fatalf("%d group entries after the balancer's pass, want 0", n)
	}
}
