package server

import (
	"fmt"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// rigCoord is the stand-in 2PC coordinator of the prepare tests; other
// coordinators are numbered after it.
const rigCoord env.NodeID = 9500

// coordinator adds the stand-in coordinator to r and returns the votes it
// receives. It answers every status query Pending, so a participant's
// termination monitor waits out its budget instead of deciding.
func (r *rig) coordinator() *[]wire.TxnVote {
	votes := new([]wire.TxnVote)
	r.sim.AddNode(rigCoord, env.NodeConfig{Handler: func(p *env.Proc, _ env.NodeID, msg any) {
		switch m := msg.(*wire.Packet).Body.(type) {
		case *wire.TxnVote:
			*votes = append(*votes, *m)
		case *wire.TxnStatusReq:
			p.Send(m.From, &wire.Packet{Dst: m.From, Origin: rigCoord,
				Body: &wire.TxnStatusResp{CtlResp: wire.CtlResp{ID: m.ID}, Pending: true}})
		}
	}})
	return votes
}

// preparing returns rigCoord's prepare of transaction txn, acknowledging the
// rounds below acked: put a file at name, which must not exist. It leaves the
// participant prepared, holding the name's lock until the decision.
func preparing(txn, acked uint64, name string) *wire.TxnPrepare {
	key := core.Key{PID: core.RootDirID, Name: name}
	file := core.EncodeInode(&core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}})
	return &wire.TxnPrepare{Txn: txn, From: rigCoord, Acked: acked,
		Ops:   []wire.TxnOp{{Kind: wire.TxnPutInode, Key: key, Inode: file}},
		Check: []wire.TxnCheck{{Key: key, MustNotExist: true}}}
}

// refused returns coordinator from's prepare of transaction txn that the
// participant refuses: it checks that a missing file exists. Nothing stays
// prepared, nothing is logged.
func refused(from env.NodeID, txn uint64, name string) *wire.TxnPrepare {
	return &wire.TxnPrepare{Txn: txn, From: from, Acked: txn,
		Check: []wire.TxnCheck{{Key: core.Key{PID: core.RootDirID, Name: name}, MustExist: true}}}
}

// prepareRecords counts the WAL's prepared-state records of transaction txn.
func prepareRecords(log *wal.Mem, txn uint64) int {
	n := 0
	log.Replay(func(r wal.Record) error {
		if r.Kind == recTxnPrepare {
			if id, _, _, err := decodeTxnPrepare(r.Payload); err == nil && id == txn {
				n++
			}
		}
		return nil
	})
	return n
}

// TestPrepareRetransmissionOutlivesOtherCoordinators: a participant remembers
// a prepare's vote until its coordinator acknowledges the round, however many
// prepares of other coordinators it takes up meanwhile. A prepare is voted,
// then 4 097 other coordinators' prepares arrive — more than a memo bounded
// at 4 096 prepares keeps — and then the first is retransmitted. Its vote is
// replayed. A second execution would queue behind the first's key lock,
// never vote, and once the decision released the lock take it for good,
// logging a second prepared-state record.
func TestPrepareRetransmissionOutlivesOtherCoordinators(t *testing.T) {
	const others = 4097
	r := newRig(t)
	votes := r.coordinator()
	first := preparing(1, 1, "f")
	r.send(rigServer, 0, first)
	r.sim.Run()
	for i := 1; i <= others; i++ {
		r.send(rigServer, 0, refused(rigCoord+env.NodeID(i), uint64(1+i), fmt.Sprintf("missing%d", i)))
	}
	r.sim.Run()
	r.send(rigServer, 0, first)
	r.sim.Run()
	if len(*votes) != 2 || (*votes)[0].Err != core.ErrnoOK || (*votes)[1] != (*votes)[0] {
		t.Fatalf("votes %+v, want the OK vote and its replay", *votes)
	}
	if n := prepareRecords(r.s.wal, first.Txn); n != 1 {
		t.Errorf("%d prepared-state records, want 1", n)
	}
	r.send(rigServer, 0, &wire.TxnDecision{Txn: first.Txn, Commit: true})
	r.sim.Run()
	if n := r.s.LockedKeys(); n != 0 {
		t.Errorf("%d keys locked after the decision, want 0: a second execution wedged", n)
	}
}

// TestPrepareBelowFloorDropped: once a prepare acknowledged transaction 5, a
// late copy of transaction 3's prepare is one whose round the coordinator has
// ended. It is dropped: no lock, no prepared-state record, no vote.
func TestPrepareBelowFloorDropped(t *testing.T) {
	r := newRig(t)
	votes := r.coordinator()
	r.send(rigServer, 0, preparing(5, 5, "a"))
	r.send(rigServer, env.Microsecond, preparing(3, 3, "b"))
	r.sim.Run()
	if len(*votes) != 1 || (*votes)[0].Txn != 5 {
		t.Fatalf("votes %+v, want transaction 5's alone", *votes)
	}
	if n := prepareRecords(r.s.wal, 3); n != 0 {
		t.Errorf("the dropped prepare logged %d prepared-state records", n)
	}
	if _, ok := r.s.txns[3]; ok || r.s.LockedKeys() != 1 {
		t.Errorf("the dropped prepare left state: prepared %v, %d keys locked (transaction 5 holds 1)", ok, r.s.LockedKeys())
	}
}

// TestPrepareAcksOldestOpenRound: two prepare rounds overlap at one
// coordinator, the older one waiting for a vote that never comes. Every
// prepare of the younger round acknowledges only the rounds below the older
// one; once both ended, the next round acknowledges everything below itself.
func TestPrepareAcksOldestOpenRound(t *testing.T) {
	const part env.NodeID = 101
	r := newRig(t)
	var prepares []wire.TxnPrepare
	r.sim.AddNode(part, env.NodeConfig{Handler: func(_ *env.Proc, _ env.NodeID, msg any) {
		if tp, ok := msg.(*wire.Packet).Body.(*wire.TxnPrepare); ok {
			prepares = append(prepares, *tp)
		}
	}})
	round := func(p *env.Proc) uint64 {
		var plan txnPlan
		plan.at(part).Ops = []wire.TxnOp{{Kind: wire.TxnAdjustNlink, Key: core.Key{PID: core.RootDirID, Name: "f"}}}
		ct := r.s.prepareTxn(p, &plan)
		r.s.endTxn(ct)
		return ct.id
	}
	var older, younger, next uint64
	r.sim.Spawn(rigServer, func(p *env.Proc) { older = round(p) })
	r.sim.Spawn(rigServer, func(p *env.Proc) {
		p.Sleep(env.Microsecond)
		younger = round(p)
	})
	r.sim.Run()
	r.sim.Spawn(rigServer, func(p *env.Proc) { next = round(p) })
	r.sim.Run()
	if len(r.s.txnVotes) != 0 {
		t.Fatalf("%d rounds still open after every round ended", len(r.s.txnVotes))
	}
	want := map[uint64]uint64{older: older, younger: older, next: next}
	for _, tp := range prepares {
		if tp.Acked != want[tp.Txn] {
			t.Fatalf("a prepare of transaction %d acknowledges %d, want %d (older %d, younger %d, next %d)",
				tp.Txn, tp.Acked, want[tp.Txn], older, younger, next)
		}
	}
}

// TestRearmHoldsVotesUntilAcked re-arms more in-doubt transactions than the
// bounded prepare memo held (4 096), as recovery does from the WAL: every
// re-armed vote is held — the oldest one is replayed to a retransmitted
// prepare — until a prepare of the coordinator acknowledges the rounds below
// the newest, which releases all the others.
func TestRearmHoldsVotesUntilAcked(t *testing.T) {
	const rearmed = 4096 + 5
	r := newRig(t)
	votes := r.coordinator()
	for i := range rearmed {
		r.s.txnRearm = append(r.s.txnRearm, txnRearm{txn: uint64(1 + i), coord: rigCoord})
	}
	r.sim.Spawn(rigServer, r.s.rearmPreparedTxns)
	r.sim.RunFor(env.Microsecond)
	if n := r.s.prepares.Held(rigCoord); n != rearmed {
		t.Fatalf("%d votes held after re-arming %d", n, rearmed)
	}
	r.send(rigServer, 0, preparing(1, 1, "f"))
	r.sim.RunFor(env.Millisecond)
	if len(*votes) != 1 || (*votes)[0].Txn != 1 || (*votes)[0].Err != core.ErrnoOK {
		t.Fatalf("votes %+v, want the oldest re-armed vote replayed", *votes)
	}
	r.send(rigServer, 0, preparing(rearmed+1, rearmed, "g"))
	r.sim.RunFor(env.Millisecond)
	if n := r.s.prepares.Held(rigCoord); n != 2 {
		t.Errorf("%d votes held once the coordinator acknowledged all but the newest re-armed round, want 2 (it and the new round)", n)
	}
}

// TestRenameKeepsConcurrentChmod: a file rename moves the source inode it
// read before it queued for the coordinator, so a chmod that commits at the
// source owner in between must either reach the destination or make the
// rename's prepare vote retry — never be dropped with the moved body. The
// coordinator's mutex is held across the chmod, as an earlier transaction
// would hold it.
func TestRenameKeepsConcurrentChmod(t *testing.T) {
	r := newRig(t)
	r.file("src")
	root := core.RootRef()
	r.sim.Spawn(rigServer, func(p *env.Proc) {
		r.s.renameMu.Lock(p)
		p.Sleep(500 * env.Microsecond)
		r.s.renameMu.Unlock()
	})
	r.send(rigServer, 10*env.Microsecond, &wire.RenameReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: rigClient},
		SrcParent: root, SrcName: "src", DstParent: root, DstName: "dst"})
	r.send(rigServer, 200*env.Microsecond, &wire.FileReq{ReqCommon: wire.ReqCommon{RPC: 2, Client: rigClient},
		Op: core.OpChmod, Parent: root, Name: "src", Perm: 0o600})
	r.sim.Run()

	var renamed, chmodded core.Errno = 255, 255
	for _, m := range r.resp {
		switch m := m.(type) {
		case *wire.RenameResp:
			renamed = m.Err
		case *wire.FileResp:
			chmodded = m.Err
		}
	}
	if chmodded != core.ErrnoOK {
		t.Fatalf("chmod answered %v", chmodded.Err())
	}
	var src, dst core.Inode
	srcErr := r.s.readInode(core.Key{PID: root.ID, Name: "src"}, &src)
	dstErr := r.s.readInode(core.Key{PID: root.ID, Name: "dst"}, &dst)
	switch renamed {
	case core.ErrnoOK:
		if srcErr != core.ErrNotExist || dstErr != nil || dst.Perm != 0o600 {
			t.Fatalf("rename committed: source %v, destination %v with mode %o, want the chmod's 600", srcErr, dstErr, dst.Perm)
		}
	case core.ErrnoRetry:
		if srcErr != nil || src.Perm != 0o600 || dstErr != core.ErrNotExist {
			t.Fatalf("rename voted retry: source %v with mode %o, destination %v", srcErr, src.Perm, dstErr)
		}
	default:
		t.Fatalf("rename answered %v (errno %d)", renamed.Err(), renamed)
	}
}
