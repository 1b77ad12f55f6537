package server

import (
	"slices"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wire"
)

// TestChangeLogIDsAscend commits a create at 0 and a delete 50 ns later into
// one directory on a costed server. The delete's store charge (KVDel, 700 ns)
// is shorter than the create's (KVPut, 800 ns): had the ids been reserved
// before the charges, the delete would append its larger id first, and a
// snapshot taken between the two appends — a push, an overflow notice — would
// let the owner's watermark drop the create when it followed.
func TestChangeLogIDsAscend(t *testing.T) {
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	// The switch acknowledges every dirty-set insert, as leg 7b of Fig. 4.
	sim.AddNode(1, env.NodeConfig{Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if cn, ok := msg.(*wire.Packet).Body.(*wire.CommitNotice); ok {
			p.Send(from, &wire.Packet{Dst: from, Origin: 1, Body: &wire.CommitAck{CommitID: cn.CommitID}})
		}
	}})
	s := New(sim, Config{ID: 100, Costs: env.DefaultCosts(),
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return 100 }),
		Peers:     []env.NodeID{100},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 }})
	key := core.Key{PID: core.RootDirID, Name: "d"}
	dir := core.DirRef{ID: core.DirID{9, 9, 9, 9}, Key: key, FP: key.Fingerprint()}
	s.storeInode(key, &core.Inode{ID: dir.ID, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
	s.storeInode(core.Key{PID: dir.ID, Name: "b"}, &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}})

	mutate := func(at env.Duration, rpc uint64, op core.Op, name string) {
		sim.Spawn(100, func(p *env.Proc) {
			p.Sleep(at)
			s.handle(p, 9000, &wire.Packet{Dst: 100, Origin: 9000, Body: &wire.MutateReq{
				ReqCommon: wire.ReqCommon{RPC: rpc, Client: 9000}, Op: op, Parent: dir, Name: name}})
		})
	}
	mutate(0, 1, core.OpCreate, "a")
	mutate(50*env.Nanosecond, 2, core.OpDelete, "b")
	var ids []uint64
	sim.Spawn(100, func(p *env.Proc) {
		p.Sleep(50 * env.Microsecond) // both committed; the idle push is 200 µs out
		for _, e := range s.clogs[dir.ID].log.Snapshot() {
			ids = append(ids, e.ID)
		}
	})
	sim.Run()
	if len(ids) != 2 || !slices.IsSorted(ids) {
		t.Fatalf("change-log ids in append order %v, want two, ascending", ids)
	}
	if got := s.PendingClogEntries(); got != 0 {
		t.Fatalf("%d entries pending once the run drained, want 0", got)
	}
}
