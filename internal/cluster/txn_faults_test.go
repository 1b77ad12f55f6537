package cluster

import (
	"errors"
	"fmt"
	"path"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Regression tests for the 2PC lock-leak class the lincheck work closed:
// a prepared participant holds its key locks until it learns the outcome,
// so (a) a prepare phase that gives up must drive an explicit abort, (b)
// decisions must retransmit until every participant acked, and (c) a
// coordinator crash must leave participants a way to terminate (status
// query against the WAL-backed decision record, presumed abort otherwise).
// Before the fix, a lost vote wedged the transaction's keys forever: every
// later operation on them — including plain stats, which share the inode
// locks — timed out.

// remoteFileName returns root-child names whose inode owner is NOT server 0
// (the coordinator), so transaction votes must cross the network.
func remoteFileName(c *Cluster, tag string, skip int) string {
	n := 0
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s%d", tag, i)
		if c.Ring.OwnerOfFile(core.RootDirID, name) != 0 {
			if n == skip {
				return "/" + name
			}
			n++
		}
	}
}

// dropVotes installs a network filter losing every transaction vote sent to
// the coordinator — the prepared-participant-in-doubt scenario.
func dropVotes(s *env.Sim) {
	s.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
		pkt, ok := msg.(*wire.Packet)
		if !ok {
			return env.Pass
		}
		if _, isVote := pkt.Body.(*wire.TxnVote); isVote {
			return env.Drop
		}
		return env.Pass
	}
}

func wantNoTimeout(t *testing.T, what string, err error) bool {
	t.Helper()
	if errors.Is(err, core.ErrTimeout) {
		t.Errorf("%s timed out: a 2PC participant is still holding its key locks", what)
		return false
	}
	return true
}

// TestRenamePrepareGiveUpReleasesLocks loses every vote until the prepare
// phase exhausts its budget: the coordinator must drive an explicit abort so
// the prepared participants release their locks, and once the fault clears
// the same rename must go through.
func TestRenamePrepareGiveUpReleasesLocks(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1, RetryTimeout: 200 * env.Microsecond})
	src := remoteFileName(c, "s", 0)
	dst := remoteFileName(c, "d", 0)
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Create(p, src, 0); err != nil {
			t.Errorf("create %s: %v", src, err)
		}
	})
	dropVotes(s)
	s.After(30*env.Millisecond, func() { s.Net().Filter = nil })
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		// The first attempts fail while votes are lost; the client retries
		// through the transparent ErrRetry path and succeeds after the heal.
		err := cl.Rename(p, src, dst)
		if !wantNoTimeout(t, "rename", err) {
			return
		}
		if err != nil {
			t.Errorf("rename after heal: %v", err)
			return
		}
		// The transaction keys must be free: reads share the inode locks.
		_, err = cl.Stat(p, dst)
		if !wantNoTimeout(t, "stat dst", err) {
			return
		}
		if err != nil {
			t.Errorf("stat %s: %v", dst, err)
			return
		}
		if _, err = cl.Stat(p, src); !errors.Is(err, core.ErrNotExist) {
			if wantNoTimeout(t, "stat src", err) {
				t.Errorf("stat %s after rename: %v, want ErrNotExist", src, err)
			}
		}
	})
}

// TestCoordinatorCrashResolvesInDoubtTxn crashes the coordinator while a
// participant sits prepared with its vote lost. The participant's
// termination protocol must resolve the transaction against the recovered
// coordinator (presumed abort — no commit record survived), releasing the
// locks; rename must stay atomic: exactly one of src/dst exists afterwards.
func TestCoordinatorCrashResolvesInDoubtTxn(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1, RetryTimeout: 200 * env.Microsecond})
	src := remoteFileName(c, "s", 0)
	dst := remoteFileName(c, "d", 0)
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Create(p, src, 0); err != nil {
			t.Errorf("create %s: %v", src, err)
		}
	})
	dropVotes(s)
	s.After(5*env.Millisecond, func() { c.CrashServer(0) })
	s.After(10*env.Millisecond, func() { c.RecoverServer(0) })
	s.After(12*env.Millisecond, func() { s.Net().Filter = nil })
	var renameErr error
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		renameErr = cl.Rename(p, src, dst)
	})
	// The rename itself may have succeeded (a post-recovery retry) or given
	// up; what must hold afterwards is liveness on the keys and atomicity.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		_, serr := cl.Stat(p, src)
		_, derr := cl.Stat(p, dst)
		if !wantNoTimeout(t, "stat src", serr) || !wantNoTimeout(t, "stat dst", derr) {
			return
		}
		srcThere := serr == nil
		dstThere := derr == nil
		if srcThere == dstThere {
			t.Errorf("rename atomicity broken after coordinator crash: src=%v dst=%v (rename err: %v)",
				serr, derr, renameErr)
		}
	})
}

// TestCoordinatorCrashRedrivesCommit loses every decision ack so the
// participants apply a committed rename but the coordinator never collects
// the acks, then crashes it. The recovered incarnation must re-drive the
// WAL-logged commit decision: the rename stays fully applied, and the
// commit record retires (marked applied) instead of replaying forever.
func TestCoordinatorCrashRedrivesCommit(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1, RetryTimeout: 200 * env.Microsecond})
	src := remoteFileName(c, "s", 0)
	dst := remoteFileName(c, "d", 0)
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Create(p, src, 0); err != nil {
			t.Errorf("create %s: %v", src, err)
		}
	})
	s.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
		if pkt, ok := msg.(*wire.Packet); ok {
			if _, isDone := pkt.Body.(*wire.TxnDone); isDone {
				return env.Drop
			}
		}
		return env.Pass
	}
	s.After(5*env.Millisecond, func() { c.CrashServer(0) })
	s.After(10*env.Millisecond, func() { s.Net().Filter = nil })
	s.After(11*env.Millisecond, func() { c.RecoverServer(0) })
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		// The client may observe success, the resent ENOENT of its own
		// committed rename, or a timeout — all at-least-once realities.
		_ = cl.Rename(p, src, dst)
	})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if _, err := cl.Stat(p, dst); err != nil {
			if wantNoTimeout(t, "stat dst", err) {
				t.Errorf("committed rename lost after coordinator crash: stat %s: %v", dst, err)
			}
			return
		}
		if _, err := cl.Stat(p, src); !errors.Is(err, core.ErrNotExist) {
			t.Errorf("stat %s after committed rename: %v, want ErrNotExist", src, err)
		}
	})
	// The re-driven decision must have retired its WAL record.
	if pending := c.Servers[0].PendingTxnCommitRecords(); pending != 0 {
		t.Errorf("%d unacknowledged commit-decision records survive recovery; redrive did not retire them", pending)
	}
}

// TestParticipantCrashPreservesPreparedCommit crashes a PARTICIPANT after
// it voted but before any decision reaches it, with decisions suppressed so
// the transaction commits on its vote while it is down. The restarted
// incarnation must rebuild the prepared ops from its WAL and APPLY the
// commit — before the fix it acked the re-driven decision vacuously and the
// rename ended half-applied (source deleted, destination never created).
func TestParticipantCrashPreservesPreparedCommit(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1, RetryTimeout: 200 * env.Microsecond})
	src := remoteFileName(c, "s", 0)
	dst := remoteFileName(c, "d", 0)
	// The destination inode's owner is the participant that must apply the
	// TxnPutInode; crash that one.
	dstOwner := int(c.Ring.OwnerOfFile(core.RootDirID, dst[1:]))
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Create(p, src, 0); err != nil {
			t.Errorf("create %s: %v", src, err)
		}
	})
	s.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
		if pkt, ok := msg.(*wire.Packet); ok {
			if _, isDec := pkt.Body.(*wire.TxnDecision); isDec {
				return env.Drop
			}
		}
		return env.Pass
	}
	// The crash must land inside the in-doubt window: after the vote left
	// (~0.3ms: one prepare round trip) but before the participant's
	// termination monitor first polls (prepare + 4×RetryTimeout ≈ 1.1ms)
	// would resolve the transaction while it is still alive.
	s.After(600*env.Microsecond, func() { c.CrashServer(dstOwner) })
	s.After(8*env.Millisecond, func() { c.RecoverServer(dstOwner) })
	s.After(10*env.Millisecond, func() { s.Net().Filter = nil })
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		// The client outcome may be success or an at-least-once artifact;
		// the committed transaction's effects are what must survive.
		_ = cl.Rename(p, src, dst)
	})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		_, derr := cl.Stat(p, dst)
		_, serr := cl.Stat(p, src)
		if !wantNoTimeout(t, "stat dst", derr) || !wantNoTimeout(t, "stat src", serr) {
			return
		}
		if derr != nil {
			t.Errorf("committed rename lost its destination after participant crash: %v (src: %v)",
				derr, serr)
		}
		if !errors.Is(serr, core.ErrNotExist) {
			t.Errorf("stat %s after committed rename: %v, want ErrNotExist", src, serr)
		}
	})
}

// TestLinkVotesLostReleasesLocks runs the same give-up scenario through the
// link transaction path.
func TestLinkVotesLostReleasesLocks(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1, RetryTimeout: 200 * env.Microsecond})
	src := remoteFileName(c, "s", 0)
	dst := remoteFileName(c, "d", 0)
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Create(p, src, 0); err != nil {
			t.Errorf("create %s: %v", src, err)
		}
	})
	dropVotes(s)
	s.After(30*env.Millisecond, func() { s.Net().Filter = nil })
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		err := cl.Link(p, src, dst)
		if !wantNoTimeout(t, "link", err) {
			return
		}
		if err != nil {
			t.Errorf("link after heal: %v", err)
			return
		}
		for _, path := range []string{src, dst} {
			if _, err := cl.Stat(p, path); err != nil {
				if wantNoTimeout(t, "stat "+path, err) {
					t.Errorf("stat %s after link: %v", path, err)
				}
				return
			}
		}
	})
}

// TestCoordinatorCrashBetweenTxnHalves crashes the coordinator in the window
// that releasing renameMu at the last vote opens: transaction 1 has committed
// on its votes (the record is in the coordinator's WAL) but every decision is
// lost, so its participants stay prepared and keep their locks — the shared
// parent directory's among them; transaction 2, sent the moment the mutex was
// free, is already prepared at the participants that need no lock of
// transaction 1's, while its prepare at the directory's owner waits for the
// directory lock. After recovery the commit is re-driven, transaction 2
// resolves by presumed abort through its participants' termination protocol
// and goes through on the client's retry, and no key lock is stranded.
func TestCoordinatorCrashBetweenTxnHalves(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 2, RetryTimeout: 200 * env.Microsecond})
	// A parent directory the coordinator does not own, and file names in it
	// owned by neither the coordinator nor the directory's owner: every
	// prepare and vote crosses the network, and transaction 2 has
	// participants that can prepare while the directory lock is taken.
	pl := NewPreload(c)
	pl.LogWAL = true
	var parent core.DirRef
	for i := 0; parent.ID.IsZero(); i++ {
		name := fmt.Sprintf("p%d", i)
		if c.Ring.OwnerOfFile(core.RootDirID, name) != 0 {
			parent = pl.Dir("/" + name)
		}
	}
	dirOwner := c.Ring.OwnerOf(parent.FP)
	used := 0
	pick := func() string {
		for ; ; used++ {
			name := fmt.Sprintf("f%d", used)
			if o := c.Ring.OwnerOfFile(parent.ID, name); o != 0 && o != dirOwner {
				used++
				return "/" + parent.Key.Name + "/" + name
			}
		}
	}
	src1, dst1, src2, dst2 := pick(), pick(), pick(), pick()
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for _, f := range []string{src1, src2} {
			if err := cl.Create(p, f, 0); err != nil {
				t.Errorf("create %s: %v", f, err)
			}
		}
		// Apply the deferred creates now, so neither rename has to.
		if _, err := cl.StatDir(p, "/"+parent.Key.Name); err != nil {
			t.Errorf("statdir: %v", err)
		}
	})

	start := s.Now()
	var first uint64
	var crashedAfter env.Duration
	s.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
		pkt, ok := msg.(*wire.Packet)
		if !ok {
			return env.Pass
		}
		switch b := pkt.Body.(type) {
		case *wire.TxnDecision:
			return env.Drop
		case *wire.TxnPrepare:
			if first == 0 {
				first = b.Txn
			}
		case *wire.TxnVote:
			if b.Txn != first && crashedAfter == 0 {
				// Transaction 2's first vote is on the wire.
				crashedAfter = s.Now() - start
				s.After(0, func() { c.CrashServer(0) })
				s.After(1*env.Millisecond, func() { s.Net().Filter = nil })
				s.After(2*env.Millisecond, func() { c.RecoverServer(0) })
			}
		}
		return env.Pass
	}
	for i, pr := range [][2]string{{src1, dst1}, {src2, dst2}} {
		pr, cl := pr, c.Client(i)
		s.Spawn(cl.ID(), func(p *env.Proc) {
			p.Sleep(env.Duration(i) * env.Microsecond) // transaction 1 reaches the coordinator first
			// The outcome the client sees may be success, the resent ENOENT of
			// its own committed rename, or a timeout.
			_ = cl.Rename(p, pr[0], pr[1])
		})
	}
	s.Run()
	// With the mutex held through the decision round, transaction 2's
	// prepare leaves only once transaction 1 is decided everywhere — here
	// through its participants' termination protocol, whose first poll comes
	// 4 × RetryTimeout after they voted — and the window above does not exist.
	if crashedAfter == 0 || crashedAfter > 400*env.Microsecond {
		t.Fatalf("transaction 2 voted %v after the renames were issued (0: never): it did not prepare while transaction 1 was undecided", crashedAfter)
	}

	c.Run(0, func(p *env.Proc, cl *client.Client) {
		gone := func(file string) bool {
			_, err := cl.Stat(p, file)
			if !wantNoTimeout(t, "stat "+file, err) {
				return false
			}
			if err != nil && !errors.Is(err, core.ErrNotExist) {
				t.Errorf("stat %s: %v", file, err)
			}
			return err != nil
		}
		if !gone(src1) || gone(dst1) {
			t.Errorf("the committed rename %s -> %s was not re-driven to completion", src1, dst1)
		}
		listed := []string{path.Base(dst1)}
		switch s2, d2 := gone(src2), gone(dst2); {
		case s2 == d2:
			t.Errorf("rename atomicity broken: %s gone=%v, %s gone=%v", src2, s2, dst2, d2)
		case s2:
			listed = append(listed, path.Base(dst2))
		default:
			listed = append(listed, path.Base(src2))
		}
		wantDir(t, p, cl, "/"+parent.Key.Name, listed...)
	})
	if pending := c.Servers[0].PendingTxnCommitRecords(); pending != 0 {
		t.Errorf("%d unacknowledged commit-decision records survive recovery", pending)
	}
}

// TestDirectoryRenameHoldsCoordinatorToItsEnd races one directory rename
// with file renames. The file renames are decided after they left the
// serialized section; the directory rename stays in it through its decision
// (a later rename's loop check must see the outcome), and no other
// transaction's prepare round starts while it is there.
func TestDirectoryRenameHoldsCoordinatorToItsEnd(t *testing.T) {
	s, c, rec := traceSim(t, Options{Servers: 8, Clients: 8, Costs: env.DefaultCosts()}, 4*renamePairs)
	renameFixture(t, c)
	dirClient := c.Client(7)
	s.Spawn(dirClient.ID(), func(p *env.Proc) {
		p.Sleep(40 * env.Microsecond) // land among the file renames
		if err := dirClient.Rename(p, "/hot", "/moved"); err != nil {
			t.Errorf("rename /hot -> /moved: %v", err)
		}
	})
	var pairs [][2]string
	for i, pr := range disjointPairs() {
		if i%8 != 7 { // client 7 carries the directory rename alone
			pairs = append(pairs, pr)
		}
	}
	for i, pr := range pairs {
		pr, cl := pr, c.Client(i%7)
		s.Spawn(cl.ID(), func(p *env.Proc) {
			if err := cl.Rename(p, pr[0], pr[1]); err != nil {
				t.Errorf("rename %s -> %s: %v", pr[0], pr[1], err)
			}
		})
	}
	s.Run()

	var dir *coordRounds
	files := 0
	rounds := coordinatorRounds(assertWellShaped(t, rec))
	for _, x := range rounds {
		switch {
		case x.prepare == 0:
			// not a rename (the fixture's creates and mkdirs)
		case x.client == dirClient.ID():
			dir = x
		default:
			files++
			if x.decided <= x.serial {
				t.Errorf("a file rename was decided at %v, inside its serialized section (ends %v)", x.decided, x.serial)
			}
		}
	}
	if dir == nil || files != len(pairs) {
		t.Fatalf("traced %d file renames (want %d) and directory rename %v", files, len(pairs), dir != nil)
	}
	if dir.decided > dir.serial {
		t.Errorf("the directory rename left its serialized section at %v, before its decision round ended at %v", dir.serial, dir.decided)
	}
	for _, x := range rounds {
		if x != dir && x.prepare > dir.prepare && x.prepare < dir.serial {
			t.Errorf("a prepare round started at %v, inside the directory rename's serialized section [%v, %v]",
				x.prepare, dir.prepare, dir.serial)
		}
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		var hot []string
		for i := 0; i < renamePairs; i++ {
			hot = append(hot, fmt.Sprintf("f%d", i))
		}
		wantDir(t, p, cl, "/moved", hot...)
	})
}
