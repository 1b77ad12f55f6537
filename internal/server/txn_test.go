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
	return r.coordinatorAnswering(wire.TxnStatusResp{Pending: true})
}

// coordinatorAnswering is coordinator answering every status query with
// status.
func (r *rig) coordinatorAnswering(status wire.TxnStatusResp) *[]wire.TxnVote {
	votes := new([]wire.TxnVote)
	r.sim.AddNode(rigCoord, env.NodeConfig{Handler: func(p *env.Proc, _ env.NodeID, msg any) {
		switch m := msg.(*wire.Packet).Body.(type) {
		case *wire.TxnVote:
			*votes = append(*votes, *m)
		case *wire.TxnStatusReq:
			resp := status
			resp.CtlResp = wire.CtlResp{ID: m.ID}
			p.Send(m.From, &wire.Packet{Dst: m.From, Origin: rigCoord, Body: &resp})
		}
	}})
	return votes
}

// restart crashes r's server and restarts it over its WAL, then spawns its
// recovery; recovered is when Recover returned, 0 until then. In the event
// Recover's replay ends, before the redo charge, the server must hold locked
// keys: the prepared transactions the log holds write them.
func (r *rig) restart(t *testing.T, locked int) (recovered *env.Time) {
	recovered = new(env.Time)
	r.s.Crash()
	r.s = Restart(r.sim, r.s.cfg, r.s.wal)
	r.sim.Spawn(rigServer, func(p *env.Proc) {
		if err := r.s.Recover(p); err != nil {
			t.Error(err)
		}
		*recovered = p.Now()
	})
	r.sim.Spawn(rigServer, func(*env.Proc) {
		if n := r.s.LockedKeys(); n != locked {
			t.Errorf("%d keys locked once replay ended, want %d", n, locked)
		}
	})
	return recovered
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

// prepareRecords counts the WAL's prepared-state records. It counts them by
// kind, since a resolved record replays with its payload given up; in each
// rig that counts, one transaction at most reaches the log.
func prepareRecords(log *wal.Mem) int {
	n := 0
	log.Replay(func(r wal.Record) error {
		if r.Kind == recTxnPrepare {
			n++
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
	if n := prepareRecords(r.s.wal); n != 1 {
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
	if n := prepareRecords(r.s.wal); n != 1 {
		t.Errorf("%d prepared-state records, want transaction 5's alone", n)
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

// TestRearmHoldsVotesUntilAcked recovers more in-doubt transactions from the
// WAL than the bounded prepare memo held (4 096): every replayed vote is held
// — the oldest one is replayed to a retransmitted prepare — until a prepare
// of the coordinator acknowledges the rounds below the newest, which releases
// all the others.
func TestRearmHoldsVotesUntilAcked(t *testing.T) {
	const rearmed = 4096 + 5
	r := newRig(t)
	votes := r.coordinator()
	for i := range rearmed {
		mustAppend(r.s.wal, recTxnPrepare, encodeTxnPrepare(nil, uint64(1+i), rigCoord, nil))
	}
	recovered := r.restart(t, 0)
	r.sim.RunFor(env.Microsecond)
	if n := r.s.prepares.Held(rigCoord); n != rearmed {
		t.Fatalf("%d votes held after replaying %d prepares", n, rearmed)
	}
	r.send(rigServer, 0, preparing(1, 1, "f"))
	r.sim.RunFor(10 * env.Millisecond)
	if *recovered == 0 {
		t.Fatalf("recovery had not ended after 10 ms")
	}
	if len(*votes) != 1 || (*votes)[0].Txn != 1 || (*votes)[0].Err != core.ErrnoOK {
		t.Fatalf("votes %+v, want the oldest re-armed vote replayed", *votes)
	}
	r.send(rigServer, 0, preparing(rearmed+1, rearmed, "g"))
	r.sim.RunFor(env.Millisecond)
	if n := r.s.prepares.Held(rigCoord); n != 2 {
		t.Errorf("%d votes held once the coordinator acknowledged all but the newest re-armed round, want 2 (it and the new round)", n)
	}
}

// TestDecisionDuringRedoApplied: a participant prepared, crashed and
// restarted, and the commit decision reaches it while Recover charges the
// redo. The replayed transaction holds its key from the end of replay, and
// the decision applies it, so the file exists, although the coordinator,
// which retired the record once every participant acked, answers a status
// query with presumed abort.
func TestDecisionDuringRedoApplied(t *testing.T) {
	r := newRig(t)
	r.coordinatorAnswering(wire.TxnStatusResp{})
	tp := preparing(1, 1, "f")
	r.send(rigServer, 0, tp)
	r.sim.RunFor(env.Millisecond)
	r.restart(t, 1)
	r.send(rigServer, 0, &wire.TxnDecision{Txn: tp.Txn, Commit: true})
	r.sim.Run()
	var in core.Inode
	if err := r.s.readInode(tp.Ops[0].Key, &in); err != nil {
		t.Fatalf("the committed file: %v", err)
	}
	if n := r.s.LockedKeys(); n != 0 || len(r.s.txns) != 0 {
		t.Errorf("%d keys locked, %d transactions prepared after the decision; want 0, 0", n, len(r.s.txns))
	}
}

// TestPrepareDuringRedoReplaysVote: a participant prepared, crashed and
// restarted over a log of 200 more records, and the coordinator retransmits
// the prepare while Recover charges the redo. The replayed transaction holds
// its key from the end of replay, and the retransmission gets the replayed
// vote: the prepare runs once, one prepared-state record, and Recover ends
// without waiting for the decision. The decision then leaves no key locked.
func TestPrepareDuringRedoReplaysVote(t *testing.T) {
	r := newRig(t)
	votes := r.coordinator()
	for i := range 200 {
		r.s.InjectInode(core.Key{PID: core.RootDirID, Name: fmt.Sprintf("g%d", i)},
			&core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}, true)
	}
	tp := preparing(1, 1, "f")
	r.send(rigServer, 0, tp)
	r.sim.RunFor(env.Millisecond)
	recovered := r.restart(t, 1)
	r.send(rigServer, 0, tp)
	decided := r.sim.Now() + 5*env.Millisecond
	r.send(rigServer, 5*env.Millisecond, &wire.TxnDecision{Txn: tp.Txn, Commit: true})
	r.sim.Run()
	if n := prepareRecords(r.s.wal); n != 1 {
		t.Errorf("%d prepared-state records, want 1", n)
	}
	if *recovered == 0 || *recovered >= decided {
		t.Errorf("Recover returned at %v, the decision was sent at %v", *recovered, decided)
	}
	if len(*votes) != 2 || (*votes)[1] != (*votes)[0] || (*votes)[0].Err != core.ErrnoOK {
		t.Errorf("votes %+v, want the OK vote and its replay", *votes)
	}
	if n := r.s.LockedKeys(); n != 0 || len(r.s.txns) != 0 {
		t.Errorf("%d keys locked, %d transactions prepared after the decision; want 0, 0", n, len(r.s.txns))
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

// detachRig is a rig holding directory d under the root, with the stand-in
// coordinator.
type detachRig struct {
	*rig
	key   core.Key
	dir   core.DirID
	votes *[]wire.TxnVote
}

func newDetachRig(t *testing.T) *detachRig {
	r := &detachRig{rig: newRig(t), key: core.Key{PID: core.RootDirID, Name: "d"}, dir: core.DirID{9, 9, 9, 9}}
	r.votes = r.coordinator()
	r.s.storeInode(r.key, &core.Inode{ID: r.dir, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
	return r
}

// detach detaches d for rename move at the instant at, in place as a
// coordinator that owns d does, and returns where the reply will be.
func (r *detachRig) detach(at env.Duration, move uint64) *wire.DetachDirResp {
	resp := new(wire.DetachDirResp)
	r.sim.SpawnAfter(rigServer, at, func(p *env.Proc) {
		*resp = r.s.serveDetachDir(p, wire.DetachDirReq{Key: r.key, Dir: r.dir, Move: move}, false)
	})
	return resp
}

// prepare sends, at the instant at, the stand-in coordinator's prepare of the
// source half of rename move, transaction txn: delete d and its entry list.
func (r *detachRig) prepare(at env.Duration, txn, move uint64) {
	tp := &wire.TxnPrepare{Txn: txn, From: rigCoord, Acked: txn,
		Ops: []wire.TxnOp{{Kind: wire.TxnDelInode, Key: r.key},
			{Kind: wire.TxnDelDentries, Key: r.key, Dir: core.DirRef{ID: r.dir}, Entry: core.LogEntry{ID: move}}},
		Check: []wire.TxnCheck{{Key: r.key, MustExist: true}}}
	r.sim.SpawnAfter(rigCoord, at, func(p *env.Proc) {
		p.Send(rigServer, &wire.Packet{Dst: rigServer, Origin: rigCoord, Body: tp})
	})
}

// lookups returns the lookup replies the client holds.
func (r *detachRig) lookups() []*wire.LookupResp {
	var out []*wire.LookupResp
	for _, m := range r.resp {
		if l, ok := m.(*wire.LookupResp); ok {
			out = append(out, l)
		}
	}
	return out
}

// TestDetachHoldsLookupsUntilPrepareLocks: a lookup of a key a directory
// rename detached waits while the detach is registered. The rename's prepare
// ends the registration once it holds the key's lock, and the lookup then
// waits on that lock and observes the decision: here a commit, so the
// directory is gone. With no prepare, the registration lapses and the lookup
// proceeds, finding the directory.
func TestDetachHoldsLookupsUntilPrepareLocks(t *testing.T) {
	lookup := &wire.LookupReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: rigClient}, Parent: core.RootDirID, Name: "d"}
	at := func(r *detachRig, d env.Duration, check func()) {
		r.sim.SpawnAfter(rigClient, d, func(*env.Proc) { check() })
	}

	r := newDetachRig(t)
	det := r.detach(env.Microsecond, 5)
	r.send(rigServer, 50*env.Microsecond, lookup)
	r.prepare(100*env.Microsecond, 1, 5)
	r.send(rigServer, 300*env.Microsecond, &wire.TxnDecision{Txn: 1, Commit: true})
	at(r, 99*env.Microsecond, func() {
		if n := len(r.lookups()); n != 0 || r.s.removals[r.key] == nil {
			t.Errorf("before the prepare: %d lookups answered, detach registered %v; want 0, true", n, r.s.removals[r.key] != nil)
		}
	})
	at(r, 200*env.Microsecond, func() {
		if n := len(r.lookups()); n != 0 || len(r.s.removals) != 0 || len(r.s.txns) != 1 {
			t.Errorf("prepared: %d lookups answered, %d detaches, %d prepared; want 0, 0, 1", n, len(r.s.removals), len(r.s.txns))
		}
	})
	r.sim.Run()
	if det.Err != core.ErrnoOK || len(*r.votes) != 1 || (*r.votes)[0].Err != core.ErrnoOK {
		t.Fatalf("detach %v, votes %+v; want ok and one ok vote", det.Err.Err(), *r.votes)
	}
	if l := r.lookups(); len(l) != 1 || l[0].Err != core.ErrnoNotExist {
		t.Fatalf("lookups %+v, want one that found d renamed away", l)
	}

	r = newDetachRig(t)
	r.detach(env.Microsecond, 5)
	r.send(rigServer, 50*env.Microsecond, lookup)
	lapsed := env.Duration(0)
	r.sim.SpawnAfter(rigServer, 60*env.Microsecond, func(p *env.Proc) {
		r.s.waitDetach(p, r.key)
		lapsed = env.Duration(p.Now())
	})
	r.sim.Run()
	if l := r.lookups(); len(l) != 1 || l[0].Err != core.ErrnoOK || l[0].Dir != r.dir {
		t.Fatalf("lookups %+v, want one that found d", l)
	}
	if lapsed < r.s.detachLapse() {
		t.Errorf("the detach ended at %v, before its lapse (%v)", lapsed, r.s.detachLapse())
	}
}

// TestDirMovePrepareNeedsLiveDetach: the source half of a directory rename's
// prepare votes retry unless the detach it names is still registered — never
// made, or lapsed before the prepare came — and then leaves no lock, no
// prepared transaction and no registration behind. A live detach is ended by
// the prepare, which votes ok and holds the key until the decision.
func TestDirMovePrepareNeedsLiveDetach(t *testing.T) {
	for _, c := range []struct {
		what     string
		detach   bool
		prepared env.Duration
		move     uint64
		vote     core.Errno
	}{
		{what: "never made", prepared: 100 * env.Microsecond, move: 5, vote: core.ErrnoRetry},
		{what: "another rename's", detach: true, prepared: 100 * env.Microsecond, move: 6, vote: core.ErrnoRetry},
		{what: "lapsed", detach: true, prepared: 9 * env.Millisecond, move: 5, vote: core.ErrnoRetry},
		{what: "live", detach: true, prepared: 100 * env.Microsecond, move: 5, vote: core.ErrnoOK},
	} {
		r := newDetachRig(t)
		if c.detach {
			r.detach(env.Microsecond, 5)
		}
		r.prepare(c.prepared, 1, c.move)
		r.sim.RunFor(c.prepared + 100*env.Microsecond)
		if len(*r.votes) != 1 || (*r.votes)[0].Err != c.vote {
			t.Errorf("%s: votes %+v, want one %v", c.what, *r.votes, c.vote.Err())
			continue
		}
		locked, prepared := 0, 0
		if c.vote == core.ErrnoOK {
			locked, prepared = 1, 1
		}
		if r.s.LockedKeys() != locked || len(r.s.txns) != prepared || prepareRecords(r.s.wal) != prepared {
			t.Errorf("%s: %d keys locked, %d prepared, %d prepared-state records; want %d, %d, %d", c.what,
				r.s.LockedKeys(), len(r.s.txns), prepareRecords(r.s.wal), locked, prepared, prepared)
		}
		if c.what != "another rename's" && len(r.s.removals) != 0 {
			t.Errorf("%s: the detach is still registered", c.what)
		}
	}
}

// txnHeld is the log bytes log holds for 2PC records: what it holds beyond
// the payloads of its other records, which it never gives back.
func txnHeld(log *wal.Mem) int {
	held := int(log.Held())
	log.Replay(func(r wal.Record) error {
		if r.Kind != recTxnPrepare && r.Kind != recTxnCommit {
			held -= len(r.Payload)
		}
		return nil
	})
	return held
}

// TestResolvedTxnRecordsReleased: the log gives back the bytes of resolved
// 2PC records. A participant that takes 1 000 prepare and commit rounds, and
// a server that coordinates 1 000 renames of its own, each hold at most one
// 4 KiB chunk of 2PC records at the end (about 167 B a round when every
// record stayed). Every record keeps its place in the log.
func TestResolvedTxnRecordsReleased(t *testing.T) {
	const rounds, chunk = 1000, 4 << 10
	r := newRig(t)
	r.coordinator()
	for i := uint64(1); i <= rounds; i++ {
		r.send(rigServer, 0, preparing(i, i, fmt.Sprintf("f%d", i)))
		r.sim.Run()
		r.send(rigServer, 0, &wire.TxnDecision{Txn: i, Commit: true})
		r.sim.Run()
	}
	if n := prepareRecords(r.s.wal); n != rounds || r.s.LockedKeys() != 0 {
		t.Fatalf("%d prepared-state records, %d keys locked; want %d, 0", n, r.s.LockedKeys(), rounds)
	}
	if held := txnHeld(r.s.wal); held > chunk {
		t.Errorf("participant: %d bytes of 2PC records held after %d resolved rounds, want at most %d", held, rounds, chunk)
	}
	s, rename := renameRig(t, rounds)
	rename(0, rounds)
	if n := s.PendingTxnCommitRecords(); n != 0 {
		t.Fatalf("%d commit decisions unacknowledged", n)
	}
	if held := txnHeld(s.wal); held > chunk {
		t.Errorf("coordinator: %d bytes of 2PC records held after %d renames, want at most %d", held, rounds, chunk)
	}
}
