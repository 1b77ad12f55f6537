package server

import (
	"fmt"
	"testing"
	"testing/quick"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
	"switchfs/internal/wire"
)

// newTestServer builds a minimal single-node server for white-box tests.
func newTestServer(t *testing.T) (*env.Sim, *Server) {
	t.Helper()
	sim := env.NewSim(3)
	t.Cleanup(sim.Shutdown)
	s := New(sim, Config{
		ID:        100,
		Ring:      ring.New([]uint32{0}, 0, func(uint32) env.NodeID { return 100 }),
		Peers:     []env.NodeID{100},
		SwitchFor: func(core.Fingerprint) env.NodeID { return 1 },
	})
	return sim, s
}

func TestCommitRecordRoundTrip(t *testing.T) {
	parent := core.DirRef{ID: core.DirID{1, 2, 3, 4},
		Key: core.Key{PID: core.RootDirID, Name: "p"}}
	parent.FP = parent.Key.Fingerprint()
	entry := core.LogEntry{ID: 7, Time: 99, Op: core.OpCreate, Name: "f", Type: core.TypeRegular, Perm: 0o644}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}
	key := core.Key{PID: parent.ID, Name: "f"}

	payload := encodeCommit(nil, parent, entry, in)
	gotKey, gotParent, gotEntry, gotIn, err := decodeCommit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key || gotParent != parent || gotEntry != entry {
		t.Fatalf("round trip mismatch: key=%v parent=%v entry=%+v", gotKey, gotParent, gotEntry)
	}
	if gotIn.Attr != in.Attr {
		t.Fatalf("inode attr mismatch: %+v", gotIn.Attr)
	}
}

func TestCommitRecordRejectsGarbage(t *testing.T) {
	if _, _, _, _, err := decodeCommit([]byte{1, 2}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEntryRecordRoundTrip(t *testing.T) {
	f := func(id, tm uint64, name string) bool {
		if len(name) > 32 {
			name = name[:32]
		}
		ref := core.DirRef{ID: core.DirID{id, tm, 1, 2},
			Key: core.Key{PID: core.RootDirID, Name: "d"},
			FP:  core.FingerprintOf(core.RootDirID, "d")}
		e := core.LogEntry{ID: id, Time: int64(tm % (1 << 60)), Op: core.OpDelete,
			Name: name, Type: core.TypeRegular, Perm: 0o600}
		r := recReader{b: encodeEntry(nil, ref, e)}
		gotRef, gotE := r.entry()
		return gotRef == ref && gotE == e && r.end("entry") == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInodeRecordRoundTrip(t *testing.T) {
	key := core.Key{PID: core.DirID{5, 6, 7, 8}, Name: "x"}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeDir, Perm: 0o700, Nlink: 2},
		ID: core.DirID{1, 1, 2, 3}}
	k2, in2, err := decodeInodeRec(encodeInodeRec(nil, key, in))
	if err != nil || k2 != key || in2.Attr != in.Attr || in2.ID != in.ID {
		t.Fatalf("put record: key=%v err=%v", k2, err)
	}
	// Deletion marker.
	k3, in3, err := decodeInodeRec(encodeInodeRec(nil, key, nil))
	if err != nil || k3 != key || in3 != nil {
		t.Fatalf("delete record: key=%v inode=%v err=%v", k3, in3, err)
	}
}

// TestServedReleasedByAck: the client-RPC memo keeps a client's requests only
// until the client acknowledges them. One client makes 10 000 creates one
// after another, each acknowledging every earlier one, and the server holds
// at most one memo for it — the last reply, which a retransmission could
// still ask for.
func TestServedReleasedByAck(t *testing.T) {
	const ops = 10000
	r := newRig(t)
	root := core.RootRef()
	for i := uint64(1); i <= ops; i++ {
		r.send(rigServer, 0, &wire.MutateReq{ReqCommon: wire.ReqCommon{RPC: i, Acked: i, Client: rigClient},
			Op: core.OpCreate, Parent: root, Name: fmt.Sprintf("f%d", i)})
		r.sim.Run()
	}
	if len(r.resp) != ops {
		t.Fatalf("%d creates answered, want %d", len(r.resp), ops)
	}
	if n := r.s.served.Held(rigClient); n > 1 {
		t.Errorf("the server holds %d memos for a client with one request unacknowledged, want at most 1", n)
	}
}

func TestInvalListSeqSemantics(t *testing.T) {
	_, s := newTestServer(t)
	d := core.DirID{1, 2, 3, 4}
	s.addInval(d)
	// A request that has not consumed the entry is stale.
	if err := s.checkAncestors(&wire.ReqCommon{Ancestors: []core.DirID{d}}); err == nil {
		t.Fatal("stale ancestor accepted")
	}
	// A request that consumed up to the current sequence passes.
	seq := s.invalSeq
	if err := s.checkAncestors(&wire.ReqCommon{InvalSeq: seq, Ancestors: []core.DirID{d}}); err != nil {
		t.Fatalf("refreshed ancestor rejected: %v", err)
	}
	// Re-invalidation bumps the sequence past the consumed point.
	s.addInval(d)
	if err := s.checkAncestors(&wire.ReqCommon{InvalSeq: seq, Ancestors: []core.DirID{d}}); err == nil {
		t.Fatal("re-invalidated ancestor accepted")
	}
}

func TestRespCommonPiggybacksInval(t *testing.T) {
	_, s := newTestServer(t)
	for i := 0; i < 5; i++ {
		s.addInval(core.DirID{uint64(i), 1, 2, 3})
	}
	rc := s.respCommon(&wire.ReqCommon{InvalSeq: 2}, nil)
	if rc.InvalSeqHigh != 5 {
		t.Fatalf("high=%d", rc.InvalSeqHigh)
	}
	if len(rc.Inval) != 3 {
		t.Fatalf("piggybacked %d entries, want 3 (seq 3..5)", len(rc.Inval))
	}
	for _, e := range rc.Inval {
		if e.Seq <= 2 {
			t.Fatalf("stale entry seq %d piggybacked", e.Seq)
		}
	}
}

func TestAppliedWatermark(t *testing.T) {
	_, s := newTestServer(t)
	d := core.DirID{9, 9, 9, 9}
	if got := s.appliedMark(200, d); got != 0 {
		t.Fatalf("fresh mark %d", got)
	}
	s.setAppliedMark(200, d, 5)
	s.setAppliedMark(200, d, 3) // regressions ignored
	if got := s.appliedMark(200, d); got != 5 {
		t.Fatalf("mark=%d, want 5", got)
	}
	// Distinct sources and directories are independent.
	if got := s.appliedMark(201, d); got != 0 {
		t.Fatalf("other source shares mark: %d", got)
	}
}

// TestLockTableReuse: the table holds a key's lock exactly while some
// caller pins it, every pin of one key gets the same lock, and a released
// lock is reused for the next key instead of allocated.
func TestLockTableReuse(t *testing.T) {
	_, s := newTestServer(t)
	k := core.Key{PID: core.RootDirID, Name: "f"}
	k2 := core.Key{PID: core.RootDirID, Name: "g"}
	a, b := s.lockOf(k), s.lockOf(k)
	if a != b || a.pins != 2 {
		t.Fatalf("two pins of one key: distinct locks %v or pins %d, want one lock pinned twice", a != b, a.pins)
	}
	c := s.lockOf(k2)
	if c == a || s.LockedKeys() != 2 {
		t.Fatalf("distinct keys: shared lock %v, %d keys in the table, want 2", c == a, s.LockedKeys())
	}
	s.unpin(a)
	if s.locks[k] != a {
		t.Fatal("the lock left the table with a pin still on it")
	}
	s.unpin(b)
	s.unpin(c)
	if s.LockedKeys() != 0 || len(s.freeLocks) != 2 {
		t.Fatalf("all unpinned: %d keys in the table, %d free locks, want 0 and 2", s.LockedKeys(), len(s.freeLocks))
	}
	if d := s.lockOf(core.Key{PID: core.RootDirID, Name: "h"}); d != c || d.key.Name != "h" || d.pins != 1 {
		t.Fatalf("a new key got lock %p (key %v, %d pins), want the last freed one %p", d, d.key, d.pins, c)
	}
}

// TestLockQueuedWaiterKeepsEntry: a waiter queued on a key's lock holds a
// pin, so the holder's release leaves the lock in the table and hands it to
// the waiter; only the waiter's release takes it out.
func TestLockQueuedWaiterKeepsEntry(t *testing.T) {
	sim, s := newTestServer(t)
	k := core.Key{PID: core.RootDirID, Name: "f"}
	var first, second *keyLock
	afterHolder := -1
	sim.Spawn(100, func(p *env.Proc) {
		first = s.lockOf(k)
		first.Lock(p)
		p.Sleep(10 * env.Microsecond)
		s.unlockKey(first)
		afterHolder = s.LockedKeys()
	})
	sim.Spawn(100, func(p *env.Proc) {
		p.Sleep(env.Microsecond)
		second = s.lockOf(k)
		second.Lock(p) // queues behind the holder
		if p.Now() != 10*env.Microsecond || s.locks[k] != second || second.pins != 1 {
			t.Errorf("waiter granted at %v with %d pins (in the table: %v), want at 10µs with its own pin",
				p.Now(), second.pins, s.locks[k] == second)
		}
		s.unlockKey(second)
	})
	sim.Run()
	if first != second || afterHolder != 1 || s.LockedKeys() != 0 {
		t.Fatalf("same lock %v, %d keys after the holder's release (want 1), %d at the end (want 0)",
			first == second, afterHolder, s.LockedKeys())
	}
}

// TestLookupRelockKeepsPin: a lookup that meets an rmdir of its key lets go
// of the key's lock while it waits, but not of its pin — the lock stays the
// key's, so the re-lock after the wait cannot land on a lock the free list
// handed to another key meanwhile.
func TestLookupRelockKeepsPin(t *testing.T) {
	sim, s := newTestServer(t)
	key := core.Key{PID: core.RootDirID, Name: "d"}
	s.storeInode(key, &core.Inode{ID: core.DirID{7, 7, 7, 7}, Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Nlink: 2}})
	sim.Spawn(100, func(p *env.Proc) {
		d := &detachment{} // an rmdir of the key in flight, as detach registers it
		s.removals[key] = d
		p.Sleep(20 * env.Microsecond)
		s.endDetach(key, d)
	})
	sim.Spawn(100, func(p *env.Proc) {
		p.Sleep(env.Microsecond)
		s.handleLookup(p, nil, &wire.LookupReq{ReqCommon: wire.ReqCommon{RPC: 1, Client: 9000},
			Parent: key.PID, Name: key.Name})
	})
	sim.Spawn(100, func(p *env.Proc) {
		p.Sleep(10 * env.Microsecond) // the lookup waits on the removal
		l := s.locks[key]
		if l == nil || l.pins != 1 {
			t.Fatalf("while the lookup waits: lock in the table %v, want one pin", l != nil)
		}
		// Another key's operation runs start to end meanwhile: it must get a
		// lock of its own, not the waiting lookup's.
		other := s.lockOf(core.Key{PID: core.RootDirID, Name: "e"})
		other.Lock(p)
		if other == l {
			t.Error("another key was handed the waiting lookup's lock")
		}
		s.unlockKey(other)
		if s.locks[key] != l {
			t.Error("the waiting lookup's lock left the table")
		}
	})
	sim.Run()
	if s.LockedKeys() != 0 {
		t.Fatalf("%d keys locked after the run, want 0", s.LockedKeys())
	}
}

// TestLockTxnKeysDuplicateOnePin: a transaction naming one key twice — an op
// and a check — holds that key's lock once, with one pin, so the decision's
// single release takes it out of the table.
func TestLockTxnKeysDuplicateOnePin(t *testing.T) {
	sim, s := newTestServer(t)
	k := core.Key{PID: core.RootDirID, Name: "f"}
	k2 := core.Key{PID: core.RootDirID, Name: "a"}
	var locks []*keyLock
	sim.Spawn(100, func(p *env.Proc) {
		locks = s.lockTxnKeys(p, nil, []wire.TxnOp{{Kind: wire.TxnPutInode, Key: k}, {Kind: wire.TxnDelInode, Key: k2}},
			[]wire.TxnCheck{{Key: k, MustExist: true}})
	})
	sim.Run()
	if len(locks) != 2 || locks[0].key != k2 || locks[1].key != k || locks[1].pins != 1 || locks[0].pins != 1 {
		t.Fatalf("got %d locks, want [a f] in key order with one pin each", len(locks))
	}
	for _, l := range locks {
		s.unlockKey(l)
	}
	if s.LockedKeys() != 0 {
		t.Fatalf("%d keys locked after the release, want 0", s.LockedKeys())
	}
}

func TestClogIndexByFingerprint(t *testing.T) {
	_, s := newTestServer(t)
	mk := func(name string) core.DirRef {
		k := core.Key{PID: core.RootDirID, Name: name}
		return core.DirRef{ID: core.DirID{1, 2, 3, uint64(len(name))}, Key: k, FP: k.Fingerprint()}
	}
	a := mk("a")
	dl := s.clogOf(a)
	if s.clogOf(a) != dl {
		t.Fatal("clogOf not idempotent")
	}
	if g := s.groups[a.FP]; g == nil || len(g.logs) != 1 || g.logs[0] != dl {
		t.Fatal("the log's group does not hold it")
	}
}

func TestFileAttrKeyIsolated(t *testing.T) {
	// The hard-link attribute namespace must not collide with real parents.
	k := fileAttrKey(core.FileID(1234))
	if _, err := core.DecodeKey(k.Encode()); err != nil {
		t.Fatalf("attr key not a valid inode key: %v", err)
	}
	if k.PID == core.RootDirID {
		t.Fatal("attr key parent collides with root")
	}
	if fileAttrKey(1) == fileAttrKey(2) {
		t.Fatal("attr keys not unique per file id")
	}
	_ = fmt.Sprint(k)
}

// TestDuplicateChmodNotReexecuted pins the re-execution fix: the FileReq
// route deduplicates chmod, so a retransmitted chmod that arrives after a
// newer chmod committed replays its cached response instead of re-executing.
// Without it the duplicate re-appended the WAL record and snapped the
// permissions back to the stale value.
func TestDuplicateChmodNotReexecuted(t *testing.T) {
	sim, s := newTestServer(t)
	parent := core.DirRef{ID: core.DirID{1, 2, 3, 4},
		Key: core.Key{PID: core.RootDirID, Name: "p"}}
	parent.FP = parent.Key.Fingerprint()
	key := core.Key{PID: parent.ID, Name: "f"}
	in := &core.Inode{Attr: core.Attr{Type: core.TypeRegular, Perm: 0o644, Nlink: 1}}
	s.kv.Put(key.Encode(), core.EncodeInode(in))

	perm := func() core.Perm {
		raw, ok := s.kv.GetView(key.Encode())
		if !ok {
			t.Fatal("inode missing")
		}
		got, err := core.DecodeInode(raw)
		if err != nil {
			t.Fatal(err)
		}
		return got.Perm
	}
	chmod := func(p *env.Proc, rpc uint64, pm core.Perm) {
		s.handle(p, 9000, &wire.Packet{Dst: 100, Origin: 9000, Body: &wire.FileReq{
			ReqCommon: wire.ReqCommon{RPC: rpc, Client: 9000},
			Op:        core.OpChmod, Parent: parent, Name: "f", Perm: pm}})
	}

	var walAfterNewer int
	sim.Spawn(100, func(p *env.Proc) {
		chmod(p, 1, 0o600) // original executes and commits
		chmod(p, 2, 0o700) // a newer chmod commits after it
		walAfterNewer = s.wal.Len()
		chmod(p, 1, 0o600) // stale retransmission of rpc 1
	})
	sim.Run()

	if got := perm(); got != 0o700 {
		t.Fatalf("stale duplicate chmod clobbered newer perm: got %o, want 700", got)
	}
	if got := s.wal.Len(); got != walAfterNewer {
		t.Fatalf("duplicate chmod re-appended WAL records: %d -> %d", walAfterNewer, got)
	}
}
