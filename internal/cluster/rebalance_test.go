package cluster

import (
	"errors"
	"fmt"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Tests for live fingerprint-group migration (balance.go) and the staged
// Reconfigure built on it: a hot directory moves under skewed load without
// the namespace going unavailable, a group straddled by a prepared-but-
// undecided 2PC transaction defers its migration until the transaction
// terminates, and the stop-the-world reconfiguration bug class stays retired
// (ops issued during a grow never fail, only retry).

// skewedNames returns n distinct root-child names whose fingerprint groups
// the initial ring places on the given slot.
func skewedNames(c *Cluster, slot uint32, tag string, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("%s%d", tag, i)
		if c.Ring.OwnerOfFile(core.RootDirID, name) == slot {
			out = append(out, name)
		}
	}
	return out
}

// TestMigrateFPMovesGroup migrates one directory group between live servers
// and verifies the store handoff is complete: inodes, entry lists and
// reachability through the normal client path (the ring override reroutes).
func TestMigrateFPMovesGroup(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	dir := "/" + skewedNames(c, 0, "d", 1)[0]
	fp := core.FingerprintOf(core.RootDirID, dir[1:])
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Mkdir(p, dir, 0); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := cl.Create(p, fmt.Sprintf("%s/f%d", dir, i), 0); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
	})

	var migErr error
	s.Spawn(c.Servers[0].ID(), func(p *env.Proc) {
		migErr = c.MigrateFP(p, fp, 2)
	})
	s.Run()
	if migErr != nil {
		t.Fatalf("migrate: %v", migErr)
	}
	if got := c.Ring.OwnerOf(fp); got != 2 {
		t.Fatalf("ring owner after migration: %d, want 2", got)
	}
	if c.Moves() != 1 {
		t.Fatalf("moves=%d, want 1", c.Moves())
	}
	stored := func(i int) bool {
		for _, g := range c.Servers[i].StoredFingerprints() {
			if g == fp {
				return true
			}
		}
		return false
	}
	if stored(0) || !stored(2) {
		t.Fatalf("group placement after migration: src-has=%v dst-has=%v", stored(0), stored(2))
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, dir)
		if err != nil {
			t.Fatalf("statdir after migration: %v", err)
		}
		if attr.Size != 3 {
			t.Errorf("statdir size after migration: %d, want 3", attr.Size)
		}
		es, err := cl.ReadDir(p, dir)
		if err != nil || len(es) != 3 {
			t.Errorf("readdir after migration: %d entries, err %v", len(es), err)
		}
		if err := cl.Create(p, dir+"/f3", 0); err != nil {
			t.Errorf("create in migrated dir: %v", err)
		}
	})
}

// TestHotDirectoryMovesUnderSkew drives a skewed workload — every hot
// directory's group starts on server 0 — while the balancer runs, and
// verifies the heat actually moves: at least one group migrates, the hot
// groups end up spread over more than one slot, and the namespace stays
// exact throughout (no op lost or double-applied shows up as a wrong entry
// list or size afterwards).
func TestHotDirectoryMovesUnderSkew(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 2})
	names := skewedNames(c, 0, "h", 4)
	fps := make([]core.Fingerprint, len(names))
	for i, name := range names {
		fps[i] = core.FingerprintOf(core.RootDirID, name)
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for _, name := range names {
			if err := cl.Mkdir(p, "/"+name, 0); err != nil {
				t.Fatalf("mkdir /%s: %v", name, err)
			}
			if err := cl.Create(p, "/"+name+"/child", 0); err != nil {
				t.Fatalf("create child: %v", err)
			}
		}
	})

	end := s.Now() + 4*env.Millisecond
	var opErrs int
	for w := 0; w < 2; w++ {
		cl := c.Client(w)
		w := w
		s.Spawn(cl.ID(), func(p *env.Proc) {
			for i := 0; p.Now() < end; i++ {
				dir := "/" + names[(i+w)%len(names)]
				if _, err := cl.StatDir(p, dir); err != nil {
					opErrs++
				}
				if _, err := cl.ReadDir(p, dir); err != nil {
					opErrs++
				}
			}
		})
	}
	s.Spawn(c.Servers[0].ID(), func(p *env.Proc) {
		for i := 0; i < 6 && p.Now() < end; i++ {
			p.Sleep(500 * env.Microsecond)
			c.RebalanceOnce(p)
		}
	})
	s.Run()

	if opErrs > 0 {
		t.Errorf("%d operations failed during rebalance (skewed load must only retry, not fail)", opErrs)
	}
	if c.Moves() == 0 {
		t.Fatal("balancer moved nothing under a 4-directory hot spot")
	}
	owners := map[uint32]bool{}
	for _, fp := range fps {
		owners[c.Ring.OwnerOf(fp)] = true
	}
	if len(owners) < 2 {
		t.Errorf("hot groups still all on one slot after %d moves", c.Moves())
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for _, name := range names {
			attr, err := cl.StatDir(p, "/"+name)
			if err != nil || attr.Size != 1 {
				t.Errorf("statdir /%s after rebalance: size=%d err=%v, want 1 entry", name, attr.Size, err)
			}
			if _, err := cl.Stat(p, "/"+name+"/child"); err != nil {
				t.Errorf("stat /%s/child after rebalance: %v", name, err)
			}
		}
	})
}

// TestMigrationDefersToPreparedTxn pins the migration/2PC interlock: a
// fingerprint group touched by a prepared-but-undecided transaction must not
// migrate until the transaction terminates — otherwise the decision would
// apply its ops to a store that no longer owns the keys, half-applying the
// rename. Decisions are suppressed so the participant sits prepared; a
// migration of the destination group starts inside that window, and must
// land only after the termination protocol resolves the transaction.
func TestMigrationDefersToPreparedTxn(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1, RetryTimeout: 200 * env.Microsecond})
	src := remoteFileName(c, "s", 0)
	dst := remoteFileName(c, "d", 0)
	part := int(c.Ring.OwnerOfFile(core.RootDirID, dst[1:]))
	fp := core.FingerprintOf(core.RootDirID, dst[1:])
	target := uint32((part + 1) % 4)
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Create(p, src, 0); err != nil {
			t.Fatalf("create %s: %v", src, err)
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
	// 600µs after the rename starts: the vote has left (~0.3ms) but the
	// participant's termination monitor has not yet resolved the transaction
	// (~1.1ms) — the prepared-but-undecided window.
	var prepared bool
	var migErr error
	migDone := false
	s.After(600*env.Microsecond, func() {
		prepared = !c.Servers[part].FPQuiescent(fp)
		s.Spawn(c.Servers[0].ID(), func(p *env.Proc) {
			migErr = c.MigrateFP(p, fp, target)
			migDone = true
		})
	})
	s.After(4*env.Millisecond, func() { s.Net().Filter = nil })
	var renErr error
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		renErr = cl.Rename(p, src, dst)
	})

	if !prepared {
		t.Fatal("destination group was quiescent inside the in-doubt window; the scenario exercised nothing")
	}
	if !migDone || migErr != nil {
		t.Fatalf("migration across the prepared window: done=%v err=%v", migDone, migErr)
	}
	if c.Ring.OwnerOf(fp) != target {
		t.Fatalf("ring owner=%d, want %d", c.Ring.OwnerOf(fp), target)
	}
	// The committed rename's effects must live on the migration target: a
	// migration that jumped the prepared window leaves the destination inode
	// stranded on the old owner (or lost), breaking atomicity.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if renErr != nil {
			t.Errorf("rename: %v", renErr)
		}
		if _, err := cl.Stat(p, dst); err != nil {
			t.Errorf("stat %s after rename+migration: %v", dst, err)
		}
		if _, err := cl.Stat(p, src); !errors.Is(err, core.ErrNotExist) {
			t.Errorf("stat %s after rename: %v, want ErrNotExist", src, err)
		}
	})
	found := false
	for _, g := range c.Servers[int(target)].StoredFingerprints() {
		if g == fp {
			found = true
		}
	}
	if !found {
		t.Error("migrated group absent from the target server's store")
	}
}

// TestMigrationDefersToCrashedPreparedTxn pins the durable half of the
// migration/2PC interlock: prepared-but-undecided state survives a fail-stop
// in the source's WAL (recTxnPrepare), so a group touched by one must not be
// copied from a crashed source either — recovery re-registers the
// transaction and the commit decision applies its ops to the source store.
// Before the fix, the down-source fast path copied and evicted the group
// pre-decision; the recovered source then applied the rename's effects to
// the evicted, no-longer-owner store and the destination never saw them.
// The migration must instead wait out the crash and land only after the
// recovered participant's termination protocol resolves the transaction.
func TestMigrationDefersToCrashedPreparedTxn(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1, RetryTimeout: 200 * env.Microsecond})
	src := remoteFileName(c, "s", 0)
	dst := remoteFileName(c, "d", 0)
	part := int(c.Ring.OwnerOfFile(core.RootDirID, dst[1:]))
	fp := core.FingerprintOf(core.RootDirID, dst[1:])
	target := uint32((part + 1) % 4)
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Create(p, src, 0); err != nil {
			t.Fatalf("create %s: %v", src, err)
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
	// 600µs in: the participant's vote has left but no decision can arrive —
	// crash it inside the prepared-but-undecided window, with the prepared
	// state only in its WAL.
	var prepared bool
	var migErr error
	migDone := false
	s.After(600*env.Microsecond, func() {
		prepared = !c.Servers[part].FPQuiescent(fp)
		c.CrashServer(part)
		s.Spawn(c.Servers[0].ID(), func(p *env.Proc) {
			migErr = c.MigrateFP(p, fp, target)
			migDone = true
		})
	})
	// While the source is down with an in-doubt transaction, the group must
	// not have moved.
	var movedWhileDown bool
	s.After(3*env.Millisecond, func() {
		movedWhileDown = migDone
	})
	s.After(4*env.Millisecond, func() {
		s.Net().Filter = nil
		c.RecoverServer(part)
	})
	var renErr error
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		renErr = cl.Rename(p, src, dst)
	})

	if !prepared {
		t.Fatal("destination group was quiescent at crash time; the scenario exercised nothing")
	}
	if movedWhileDown {
		t.Fatal("group migrated away from a crashed source with a prepared-but-undecided transaction in its WAL")
	}
	if !migDone || migErr != nil {
		t.Fatalf("migration after recovery: done=%v err=%v", migDone, migErr)
	}
	if c.Ring.OwnerOf(fp) != target {
		t.Fatalf("ring owner=%d, want %d", c.Ring.OwnerOf(fp), target)
	}
	// The rename committed (the coordinator's decision is durable); its
	// effects must have been applied at the recovered source and travelled
	// with the copy — a migration that jumped the crash window strands them.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if renErr != nil {
			t.Errorf("rename: %v", renErr)
		}
		if _, err := cl.Stat(p, dst); err != nil {
			t.Errorf("stat %s after crash+recover+migration: %v", dst, err)
		}
		if _, err := cl.Stat(p, src); !errors.Is(err, core.ErrNotExist) {
			t.Errorf("stat %s after rename: %v, want ErrNotExist", src, err)
		}
	})
	found := false
	for _, g := range c.Servers[int(target)].StoredFingerprints() {
		if g == fp {
			found = true
		}
	}
	if !found {
		t.Error("migrated group absent from the target server's store")
	}
}

// TestReconfigureUnderLoad grows the cluster while closed-loop clients keep
// mutating: the staged migration must leave every operation either succeeded
// or transparently retried (the stop-the-world class would surface here as
// timeouts), and the namespace must be exact on the grown cluster.
func TestReconfigureUnderLoad(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 2})
	dirs := []string{"/ra", "/rb"}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for _, d := range dirs {
			if err := cl.Mkdir(p, d, 0); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
		}
	})

	var recErr error
	perDir := 12
	for w := 0; w < 2; w++ {
		cl := c.Client(w)
		dir := dirs[w]
		s.Spawn(cl.ID(), func(p *env.Proc) {
			for i := 0; i < perDir; i++ {
				if err := cl.Create(p, fmt.Sprintf("%s/f%d", dir, i), 0); err != nil && recErr == nil {
					recErr = fmt.Errorf("create %s/f%d: %w", dir, i, err)
				}
				p.Sleep(300 * env.Microsecond)
			}
		})
	}
	s.After(500*env.Microsecond, func() { c.Reconfigure(6) })
	s.Run()
	if recErr != nil {
		t.Fatalf("operation failed during live reconfiguration: %v", recErr)
	}
	if len(c.Servers) != 6 {
		t.Fatalf("cluster has %d servers after grow, want 6", len(c.Servers))
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for _, d := range dirs {
			attr, err := cl.StatDir(p, d)
			if err != nil || attr.Size != int64(perDir) {
				t.Errorf("statdir %s after grow: size=%d err=%v, want %d", d, attr.Size, err, perDir)
			}
			for i := 0; i < perDir; i++ {
				if _, err := cl.Stat(p, fmt.Sprintf("%s/f%d", d, i)); err != nil {
					t.Errorf("stat %s/f%d after grow: %v", d, i, err)
				}
			}
		}
	})
}

// TestMigratedNameLeavesNoDeferredUpdateBehind pins the invariant the 2PC
// checks rest on: a name's deferred directory updates live only at the name's
// owner. /d/x is created on server A and x's group live-migrates to B inside
// A's push-idle window; then, with no directory read in between, x is deleted
// at B or renamed away — and must not be listed afterwards. A's link to the
// directory's owner is slow, so an update A kept past the migration would
// reach the directory after everything B did to the name.
func TestMigratedNameLeavesNoDeferredUpdateBehind(t *testing.T) {
	for _, mode := range []string{"delete", "rename"} {
		t.Run(mode, func(t *testing.T) {
			s, c := sim(t, Options{Servers: 4, Clients: 1})
			c.Run(0, func(p *env.Proc, cl *client.Client) {
				if err := cl.Mkdir(p, "/d", 0); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
			})
			dirOwner := c.Ring.OwnerOfFile(core.RootDirID, "d")
			var kb core.KeyBuf
			raw, _ := c.Servers[dirOwner].KV().Get(core.Key{PID: core.RootDirID, Name: "d"}.AppendTo(kb[:0]))
			in, err := core.DecodeInode(raw)
			if err != nil {
				t.Fatalf("directory inode: %v", err)
			}
			// x lives on A, y on neither A nor the directory's owner, and the
			// group moves to a B that is neither.
			var x, y string
			var a, b uint32
			for i := 0; x == "" || y == ""; i++ {
				name := fmt.Sprintf("n%d", i)
				switch slot := c.Ring.OwnerOfFile(in.ID, name); {
				case x == "" && slot != dirOwner:
					x, a = name, slot
				case x != "" && y == "" && slot != dirOwner && slot != a:
					y = name
				}
			}
			for b = 0; b == a || b == dirOwner; b++ {
			}
			fp := core.FingerprintOf(in.ID, x)
			s.Net().SetLink(ServerOf(a), ServerOf(dirOwner), env.LinkRule{Delay: 400 * env.Microsecond})

			c.Run(0, func(p *env.Proc, cl *client.Client) {
				if err := cl.Create(p, "/d/"+x, 0); err != nil {
					t.Fatalf("create: %v", err)
				}
				if err := c.MigrateFP(p, fp, b); err != nil {
					t.Fatalf("migrate: %v", err)
				}
				if mode == "delete" {
					err = cl.Delete(p, "/d/"+x)
				} else {
					err = cl.Rename(p, "/d/"+x, "/d/"+y)
				}
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			})
			if n := c.Servers[a].PendingClogEntries(); n != 0 {
				t.Errorf("%d entries still pending at the migration source", n)
			}
			c.Run(0, func(p *env.Proc, cl *client.Client) {
				if mode == "delete" {
					wantDir(t, p, cl, "/d")
				} else {
					wantDir(t, p, cl, "/d", y)
				}
			})
		})
	}
}

// TestFPOpsHoldsOnlyDirectoryGroups pins that the balancer's op table grows
// with the directory groups touched, not with the files: 2 048 creates and
// stats in one directory, then one statdir, with no balancer pass to reset
// the table, leave exactly one tallied group on the whole cluster — the
// directory's, counted once, on its owner.
func TestFPOpsHoldsOnlyDirectoryGroups(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1})
	const files = 2048
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Mkdir(p, "/d", 0); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		for i := 0; i < files; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		for i := 0; i < files; i++ {
			if _, err := cl.Stat(p, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Fatalf("stat: %v", err)
			}
		}
		if attr, err := cl.StatDir(p, "/d"); err != nil || attr.Size != files {
			t.Fatalf("statdir /d: size=%d err=%v, want %d", attr.Size, err, files)
		}
	})
	fp := core.FingerprintOf(core.RootDirID, "d")
	owner := int(c.Ring.OwnerOf(fp))
	for i, srv := range c.Servers {
		got := srv.FPOps()
		if i == owner {
			if len(got) != 1 || got[0].FP != fp || got[0].N != 1 {
				t.Errorf("server %d (the directory's owner) tallies %d groups %v, want only /d's once", i, len(got), got[:min(len(got), 4)])
			}
		} else if len(got) != 0 {
			t.Errorf("server %d tallies %d groups, want none", i, len(got))
		}
	}
}
