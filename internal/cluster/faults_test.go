package cluster

import (
	"errors"
	"fmt"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/server"
	"switchfs/internal/wire"
)

// Tests of the fault-tolerance machinery: UDP loss/duplication (§5.4.1),
// dirty-set overflow fallback (§5.2.1/§6.2), server and switch crash
// recovery (§5.4.2), and the consistency arguments of §A.1/§A.2.

func TestPacketLossTolerated(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	s.Net().DropProb = 0.05 // every message class must survive 5% loss
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Mkdir(p, "/d", 0); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
		}
		attr, err := cl.StatDir(p, "/d")
		if err != nil {
			t.Errorf("statdir: %v", err)
			return
		}
		if attr.Size != 30 {
			t.Errorf("size=%d, want 30 (loss broke exactly-once)", attr.Size)
		}
	})
}

func TestPacketDuplicationTolerated(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	s.Net().DupProb = 0.2
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Mkdir(p, "/d", 0); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
		}
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 30 {
			t.Errorf("size=%d err=%v, want 30 (duplication double-applied)", attr.Size, err)
		}
	})
}

func TestLossAndDuplicationHeavy(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	s.Net().DropProb = 0.1
	s.Net().DupProb = 0.1
	s.Net().Jitter = 3 * env.Microsecond // heavy reordering
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 20; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if i%3 == 0 {
				if err := cl.Delete(p, fmt.Sprintf("/d/f%d", i)); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
		attr, err := cl.StatDir(p, "/d")
		want := int64(20 - 7)
		if err != nil || attr.Size != want {
			t.Errorf("size=%d err=%v, want %d", attr.Size, err, want)
		}
	})
}

func TestDirtySetOverflowFallback(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1, ForceOverflow: true})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Mkdir(p, "/d", 0); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		// With every insert falling back, updates are applied synchronously:
		// statdir must see them without any aggregation.
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 10 {
			t.Errorf("size=%d err=%v, want 10", attr.Size, err)
		}
	})
	if c.Switches[0].Stats.Overflows == 0 {
		t.Error("no overflow was exercised")
	}
	for _, srv := range c.Servers {
		if srv.Stats.Fallbacks > 0 {
			return
		}
	}
	t.Error("no server took the fallback path")
}

func TestServerCrashRecovery(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 20; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
	})
	// Crash server 1 with pending change-log entries, then recover it.
	c.CrashServer(1)
	fut := c.RecoverServer(1)
	s.Run()
	if !fut.Done() {
		t.Fatal("recovery did not complete")
	}
	// All metadata must be intact and reads must see every update.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 20 {
			t.Errorf("after recovery: size=%d err=%v, want 20", attr.Size, err)
			return
		}
		for i := 0; i < 20; i++ {
			if _, err := cl.Stat(p, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Errorf("stat f%d after recovery: %v", i, err)
				return
			}
		}
		// The recovered server must serve new operations.
		if err := cl.Create(p, "/d/after-crash", 0); err != nil {
			t.Errorf("create after recovery: %v", err)
		}
	})
}

func TestSwitchCrashRecovery(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 15; i++ {
			cl.Create(p, fmt.Sprintf("/d/f%d", i), 0)
		}
	})
	// Reboot the switch: all dirty-set state is lost. Recovery flushes all
	// change-logs so the empty dirty set is consistent (§5.4.2).
	c.CrashSwitch()
	fut := c.RecoverSwitch()
	s.Run()
	if !fut.Done() {
		t.Fatal("switch recovery did not complete")
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		// The directory reads normal (fingerprint absent) yet must reflect
		// every pre-crash update.
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 15 {
			t.Errorf("size=%d err=%v, want 15", attr.Size, err)
			return
		}
		if err := cl.Create(p, "/d/post", 0); err != nil {
			t.Errorf("create after switch recovery: %v", err)
			return
		}
		attr, err = cl.StatDir(p, "/d")
		if err != nil || attr.Size != 16 {
			t.Errorf("post-recovery updates: size=%d err=%v, want 16", attr.Size, err)
		}
	})
}

func TestRenameFile(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/a", 0)
		cl.Mkdir(p, "/b", 0)
		cl.Create(p, "/a/f", 0)
		if err := cl.Rename(p, "/a/f", "/b/g"); err != nil {
			t.Errorf("rename: %v", err)
			return
		}
		if _, err := cl.Stat(p, "/a/f"); !errors.Is(err, core.ErrNotExist) {
			t.Errorf("src still visible: %v", err)
		}
		if _, err := cl.Stat(p, "/b/g"); err != nil {
			t.Errorf("dst missing: %v", err)
		}
		a, err := cl.StatDir(p, "/a")
		if err != nil || a.Size != 0 {
			t.Errorf("src parent size=%d err=%v", a.Size, err)
		}
		b, err := cl.StatDir(p, "/b")
		if err != nil || b.Size != 1 {
			t.Errorf("dst parent size=%d err=%v", b.Size, err)
		}
	})
}

func TestRenameDirectoryMigratesEntries(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/a", 0)
		cl.Mkdir(p, "/a/sub", 0)
		for i := 0; i < 5; i++ {
			cl.Create(p, fmt.Sprintf("/a/sub/f%d", i), 0)
		}
		if err := cl.Rename(p, "/a/sub", "/moved"); err != nil {
			t.Errorf("rename dir: %v", err)
			return
		}
		es, err := cl.ReadDir(p, "/moved")
		if err != nil {
			t.Errorf("readdir moved: %v", err)
			return
		}
		if len(es) != 5 {
			t.Errorf("moved dir has %d entries, want 5", len(es))
		}
		if _, err := cl.Stat(p, "/moved/f3"); err != nil {
			t.Errorf("stat moved child: %v", err)
		}
		if _, err := cl.StatDir(p, "/a/sub"); !errors.Is(err, core.ErrNotExist) {
			t.Errorf("old dir still visible: %v", err)
		}
	})
}

func TestRenameLoopRejected(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/x", 0)
		cl.Mkdir(p, "/x/y", 0)
		if err := cl.Rename(p, "/x", "/x/y/z"); !errors.Is(err, core.ErrLoop) {
			t.Errorf("loop rename: %v, want ErrLoop", err)
		}
	})
}

func TestRenameDstExists(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/a", 0)
		cl.Create(p, "/a/f", 0)
		cl.Create(p, "/a/g", 0)
		if err := cl.Rename(p, "/a/f", "/a/g"); !errors.Is(err, core.ErrExist) {
			t.Errorf("rename onto existing: %v, want EEXIST", err)
		}
		// Failed rename must leave both files intact (2PC abort).
		if _, err := cl.Stat(p, "/a/f"); err != nil {
			t.Errorf("src gone after aborted rename: %v", err)
		}
	})
}

func TestHardLink(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/a", 0)
		cl.Create(p, "/a/orig", 0)
		if err := cl.Link(p, "/a/orig", "/a/lnk"); err != nil {
			t.Errorf("link: %v", err)
			return
		}
		if _, err := cl.Stat(p, "/a/lnk"); err != nil {
			t.Errorf("stat link: %v", err)
		}
		attr, err := cl.StatDir(p, "/a")
		if err != nil || attr.Size != 2 {
			t.Errorf("dir size=%d err=%v, want 2", attr.Size, err)
		}
		// Deleting one reference keeps the other alive.
		if err := cl.Delete(p, "/a/orig"); err != nil {
			t.Errorf("delete orig: %v", err)
		}
		if _, err := cl.Stat(p, "/a/lnk"); err != nil {
			t.Errorf("stat link after delete: %v", err)
		}
		if err := cl.Delete(p, "/a/lnk"); err != nil {
			t.Errorf("delete lnk: %v", err)
		}
	})
}

func TestChmodAndPermPropagation(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/a", 0)
		cl.Create(p, "/a/f", 0o640)
		if err := cl.Chmod(p, "/a/f", 0o400); err != nil {
			t.Errorf("chmod: %v", err)
			return
		}
		attr, err := cl.Stat(p, "/a/f")
		if err != nil || attr.Perm != 0o400 {
			t.Errorf("perm=%o err=%v, want 400", attr.Perm, err)
		}
	})
}

func TestProactiveAggregationDrainsLogs(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1, PushEntries: 5,
		PushIdle: 100 * env.Microsecond, OwnerQuiesce: 150 * env.Microsecond})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 23; i++ {
			cl.Create(p, fmt.Sprintf("/d/f%d", i), 0)
		}
		// Wait well past the push-idle and owner-quiesce windows.
		p.Sleep(5 * env.Millisecond)
	})
	// The proactive path must have pushed and aggregated: the fingerprint is
	// gone from the dirty set without any client read.
	if occ := c.Switches[0].Occupied(); occ != 0 {
		t.Errorf("dirty set still holds %d fingerprints after quiesce", occ)
	}
	pushes := uint64(0)
	for _, srv := range c.Servers {
		pushes += srv.Stats.Pushes
	}
	if pushes == 0 {
		t.Error("no proactive pushes happened")
	}
	_ = s
	// And a subsequent statdir sees everything without aggregation cost.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 23 {
			t.Errorf("size=%d err=%v, want 23", attr.Size, err)
		}
	})
}

func TestTrackerOwnerMode(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1, Tracker: 2 /* TrackerOwner */})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 8; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 8 {
			t.Errorf("size=%d err=%v, want 8", attr.Size, err)
		}
	})
}

func TestTrackerServerMode(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1, Tracker: 1 /* TrackerServer */})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 8; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 8 {
			t.Errorf("size=%d err=%v, want 8", attr.Size, err)
		}
	})
}

func TestMultiSwitchDeployment(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1, Switches: 4})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for d := 0; d < 8; d++ {
			dir := fmt.Sprintf("/d%d", d)
			if err := cl.Mkdir(p, dir, 0); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			for i := 0; i < 4; i++ {
				cl.Create(p, fmt.Sprintf("%s/f%d", dir, i), 0)
			}
			attr, err := cl.StatDir(p, dir)
			if err != nil || attr.Size != 4 {
				t.Errorf("%s: size=%d err=%v", dir, attr.Size, err)
				return
			}
		}
	})
	// Traffic must actually spread across switches.
	busy := 0
	for _, sw := range c.Switches {
		if sw.Stats.Inserts > 0 || sw.Stats.Queries > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d of %d switches saw dirty-set traffic", busy, len(c.Switches))
	}
}

func TestBaselineSyncMode(t *testing.T) {
	s := env.NewSim(7)
	t.Cleanup(s.Shutdown)
	c := New(s, Options{Servers: 4, Clients: 1, SwitchIndexBits: 8, Updates: server.UpdateSync})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 10; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 10 {
			t.Errorf("size=%d err=%v, want 10", attr.Size, err)
		}
	})
	for _, srv := range c.Servers {
		if srv.Stats.AsyncCommits > 0 {
			t.Error("baseline mode performed async commits")
		}
	}
}

// TestTargetedRemoveDuplication replays the §5.4.1 hazard: a duplicated
// dirty-set remove must not erase fingerprints inserted after the
// aggregation completed (the sequence-number guard).
func TestTargetedRemoveDuplication(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	s.Net().Filter = func(from, to env.NodeID, msg any) env.Verdict {
		if pkt, ok := msg.(*wire.Packet); ok && pkt.DS != nil && pkt.DS.Op == wire.DSRemove {
			return env.Dup // duplicate every remove
		}
		return env.Pass
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for round := 0; round < 5; round++ {
			for i := 0; i < 4; i++ {
				cl.Create(p, fmt.Sprintf("/d/r%d-f%d", round, i), 0)
			}
			attr, err := cl.StatDir(p, "/d") // aggregation sends a remove
			if err != nil {
				t.Errorf("statdir: %v", err)
				return
			}
			want := int64(4 * (round + 1))
			if attr.Size != want {
				t.Errorf("round %d: size=%d, want %d", round, attr.Size, want)
				return
			}
		}
	})
	if st := c.Switches[0].Stats.StaleRem; st == 0 {
		t.Error("duplicated removes were never rejected by the sequence guard")
	}
}

func TestReconfigureAddServers(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 30; i++ {
			cl.Create(p, fmt.Sprintf("/d/f%d", i), 0)
		}
	})
	fut := c.Reconfigure(8)
	s.Run()
	if v, ok := fut.Peek(); !ok {
		t.Fatal("reconfiguration did not complete")
	} else if err, isErr := v.(error); isErr {
		t.Fatal(err)
	}
	if len(c.Servers) != 8 {
		t.Fatalf("cluster has %d servers", len(c.Servers))
	}
	// All metadata must survive the migration, and new writes must land on
	// the grown cluster.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 30 {
			t.Errorf("statdir after grow: size=%d err=%v, want 30", attr.Size, err)
			return
		}
		for i := 0; i < 30; i++ {
			if _, err := cl.Stat(p, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Errorf("stat f%d after grow: %v", i, err)
				return
			}
		}
		for i := 0; i < 10; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/post%d", i), 0); err != nil {
				t.Errorf("create after grow: %v", err)
				return
			}
		}
		attr, err = cl.StatDir(p, "/d")
		if err != nil || attr.Size != 40 {
			t.Errorf("final size=%d err=%v, want 40", attr.Size, err)
		}
	})
	// The new servers actually own data.
	owned := 0
	for i := 4; i < 8; i++ {
		if c.Servers[i].KV().Len() > 0 {
			owned++
		}
	}
	if owned == 0 {
		t.Error("no metadata migrated to the new servers")
	}
}

func TestReconfigureShrink(t *testing.T) {
	s, c := sim(t, Options{Servers: 6, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 20; i++ {
			cl.Create(p, fmt.Sprintf("/d/f%d", i), 0)
		}
	})
	fut := c.Reconfigure(4)
	s.Run()
	if _, ok := fut.Peek(); !ok {
		t.Fatal("shrink did not complete")
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 20 {
			t.Errorf("after shrink: size=%d err=%v", attr.Size, err)
		}
		if _, err := cl.Stat(p, "/d/f11"); err != nil {
			t.Errorf("stat after shrink: %v", err)
		}
	})
}

func TestClientCacheAvoidsLookups(t *testing.T) {
	_, c := sim(t, Options{Servers: 4, Clients: 1})
	cl := c.Client(0)
	c.Run(0, func(p *env.Proc, cc *client.Client) {
		cc.Mkdir(p, "/warm", 0)
		for i := 0; i < 20; i++ {
			cc.Create(p, fmt.Sprintf("/warm/f%d", i), 0)
		}
	})
	lookups := cl.Lookups
	c.Run(0, func(p *env.Proc, cc *client.Client) {
		for i := 0; i < 20; i++ {
			cc.Stat(p, fmt.Sprintf("/warm/f%d", i))
		}
	})
	if cl.Lookups != lookups {
		t.Errorf("warm-cache stats issued %d lookups", cl.Lookups-lookups)
	}
	if cl.CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestLazyInvalidationAcrossClients(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 2})
	// Client 0 builds and caches a path; client 1 removes the directory;
	// client 0's next use must observe the removal via lazy invalidation.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/volatile", 0)
		cl.Create(p, "/volatile/f", 0)
		if _, err := cl.Stat(p, "/volatile/f"); err != nil {
			t.Errorf("warm stat: %v", err)
		}
	})
	c.Run(1, func(p *env.Proc, cl *client.Client) {
		if err := cl.Delete(p, "/volatile/f"); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if err := cl.Rmdir(p, "/volatile"); err != nil {
			t.Errorf("rmdir: %v", err)
		}
	})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		// The cached /volatile entry is stale; the create must fail cleanly
		// with ENOENT after cache refresh, not corrupt anything.
		err := cl.Create(p, "/volatile/g", 0)
		if !errors.Is(err, core.ErrNotExist) && !errors.Is(err, core.ErrTimeout) {
			t.Errorf("create under removed dir: %v", err)
		}
	})
	_ = s
}

func TestReadDirConsistentWithStatDirUnderChurn(t *testing.T) {
	// Property-style check: after any interleaving of creates/deletes, the
	// entry-list length equals the directory size — durable visibility plus
	// exact compaction accounting.
	s, c := sim(t, Options{Servers: 8, Clients: 4})
	c.Run(0, func(p *env.Proc, cl *client.Client) { cl.Mkdir(p, "/churn", 0) })
	for w := 0; w < 4; w++ {
		w := w
		cl := c.Client(w)
		s.Spawn(cl.ID(), func(p *env.Proc) {
			for i := 0; i < 30; i++ {
				f := fmt.Sprintf("/churn/w%d-%d", w, i%7)
				if i%3 != 2 {
					cl.Create(p, f, 0)
				} else {
					cl.Delete(p, f)
				}
				if i%11 == 10 {
					cl.StatDir(p, "/churn")
				}
			}
		})
	}
	s.Run()
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, "/churn")
		if err != nil {
			t.Errorf("statdir: %v", err)
			return
		}
		es, err := cl.ReadDir(p, "/churn")
		if err != nil {
			t.Errorf("readdir: %v", err)
			return
		}
		if int64(len(es)) != attr.Size {
			t.Errorf("entry list %d entries vs size %d", len(es), attr.Size)
		}
		// Cross-check against per-file stats.
		live := 0
		for w := 0; w < 4; w++ {
			for n := 0; n < 7; n++ {
				if _, err := cl.Stat(p, fmt.Sprintf("/churn/w%d-%d", w, n)); err == nil {
					live++
				}
			}
		}
		if live != len(es) {
			t.Errorf("%d live inodes vs %d entries", live, len(es))
		}
	})
}
