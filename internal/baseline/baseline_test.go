package baseline

import (
	"errors"
	"fmt"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/fsapi"
)

func deployTest(t *testing.T, mode Mode) (*env.Sim, *Cluster) { return deployData(t, mode, 0) }

// deployData is deployTest with a data plane of n data nodes.
func deployData(t *testing.T, mode Mode, n int) (*env.Sim, *Cluster) {
	t.Helper()
	sim := env.NewSim(9)
	c := New(sim, Options{Mode: mode, Servers: 4, Clients: 1, DataNodes: n, Costs: env.DefaultCosts()})
	t.Cleanup(sim.Shutdown)
	return sim, c
}

// run executes fn on client 0 and drives the simulation.
func run(sim *env.Sim, c *Cluster, fn func(p *env.Proc, fs fsapi.FS)) {
	fs := c.ClientFS(0)
	c.SpawnClient(0, func(p *env.Proc) { fn(p, fs) })
	sim.Run()
}

func testBasicOps(t *testing.T, mode Mode) {
	sim, c := deployTest(t, mode)
	run(sim, c, func(p *env.Proc, fs fsapi.FS) {
		if err := fs.Mkdir(p, "/d"); err != nil {
			t.Errorf("%v mkdir: %v", mode, err)
			return
		}
		for i := 0; i < 8; i++ {
			if err := fs.Create(p, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Errorf("%v create: %v", mode, err)
				return
			}
		}
		if err := fs.Create(p, "/d/f0"); !errors.Is(err, core.ErrExist) {
			t.Errorf("%v duplicate create: %v", mode, err)
		}
		if a, err := fs.Stat(p, "/d/f3"); err != nil || a.Type != core.TypeRegular {
			t.Errorf("%v stat: attr=%+v err=%v", mode, a, err)
		}
		if a, err := fs.StatDir(p, "/d"); err != nil || a.Size != 8 {
			t.Errorf("%v statdir: size=%d err=%v, want 8", mode, a.Size, err)
		}
		if es, err := fs.ReadDir(p, "/d"); err != nil || len(es) != 8 {
			t.Errorf("%v readdir: %d entries err=%v, want 8", mode, len(es), err)
		}
		if err := fs.Delete(p, "/d/f3"); err != nil {
			t.Errorf("%v delete: %v", mode, err)
		}
		if _, err := fs.Stat(p, "/d/f3"); !errors.Is(err, core.ErrNotExist) {
			t.Errorf("%v stat after delete: %v", mode, err)
		}
	})
}

// TestDataReplicatesWrites: a baseline's data accesses go to the replicated
// data plane SwitchFS deploys. With two data nodes a write delivers its
// request, the replica, the replica's ack and the reply; a read delivers its
// request and the reply. An unreplicated data node delivers 2 for both.
func TestDataReplicatesWrites(t *testing.T) {
	sim, c := deployData(t, InfiniFS, 2)
	run(sim, c, func(p *env.Proc, fs fsapi.FS) {
		for i, write := range []bool{true, false, true, false, true} {
			want := uint64(2)
			if write {
				want = 4
			}
			before := sim.Delivered
			if err := fs.Data(p, i, write, 4096); err != nil {
				t.Errorf("data access %d (write %v): %v", i, write, err)
			}
			if got := sim.Delivered - before; got != want {
				t.Errorf("data access %d (write %v) delivered %d packets, want %d", i, write, got, want)
			}
		}
	})
}

func TestInfiniFSBasicOps(t *testing.T) { testBasicOps(t, InfiniFS) }
func TestCFSBasicOps(t *testing.T)      { testBasicOps(t, CFS) }
func TestCephBasicOps(t *testing.T)     { testBasicOps(t, Ceph) }
func TestIndexFSBasicOps(t *testing.T)  { testBasicOps(t, IndexFS) }

func TestDirSizeTracking(t *testing.T) {
	for _, mode := range []Mode{InfiniFS, CFS} {
		sim, c := deployTest(t, mode)
		run(sim, c, func(p *env.Proc, fs fsapi.FS) {
			fs.Mkdir(p, "/d")
			for i := 0; i < 5; i++ {
				fs.Create(p, fmt.Sprintf("/d/f%d", i))
			}
			fs.Delete(p, "/d/f0")
			a, err := fs.StatDir(p, "/d")
			if err != nil || a.Size != 4 {
				t.Errorf("%v: size=%d err=%v, want 4", mode, a.Size, err)
			}
		})
	}
}

func TestRmdirSemantics(t *testing.T) {
	sim, c := deployTest(t, CFS)
	run(sim, c, func(p *env.Proc, fs fsapi.FS) {
		fs.Mkdir(p, "/p")
		fs.Mkdir(p, "/p/q")
		fs.Create(p, "/p/q/f")
		if err := fs.Rmdir(p, "/p/q"); !errors.Is(err, core.ErrNotEmpty) {
			t.Errorf("rmdir non-empty: %v", err)
		}
		fs.Delete(p, "/p/q/f")
		if err := fs.Rmdir(p, "/p/q"); err != nil {
			t.Errorf("rmdir: %v", err)
		}
	})
}

func TestIndexFSRmdirUnsupported(t *testing.T) {
	sim, c := deployTest(t, IndexFS)
	run(sim, c, func(p *env.Proc, fs fsapi.FS) {
		fs.Mkdir(p, "/p")
		fs.Mkdir(p, "/p/q")
		if err := fs.Rmdir(p, "/p/q"); err == nil {
			t.Error("IndexFS rmdir should be unsupported (§7.2.1)")
		}
	})
}

func TestRenameMovesFile(t *testing.T) {
	for _, mode := range []Mode{InfiniFS, CFS} {
		sim, c := deployTest(t, mode)
		run(sim, c, func(p *env.Proc, fs fsapi.FS) {
			fs.Mkdir(p, "/a")
			fs.Mkdir(p, "/b")
			fs.Create(p, "/a/f")
			if err := fs.Rename(p, "/a/f", "/b/g"); err != nil {
				t.Errorf("%v rename: %v", mode, err)
				return
			}
			if _, err := fs.Stat(p, "/a/f"); !errors.Is(err, core.ErrNotExist) {
				t.Errorf("%v src survived rename: %v", mode, err)
			}
			if _, err := fs.Stat(p, "/b/g"); err != nil {
				t.Errorf("%v dst missing: %v", mode, err)
			}
		})
	}
}

func TestPreloadVisibleToClients(t *testing.T) {
	for _, mode := range []Mode{InfiniFS, CFS, Ceph} {
		sim, c := deployTest(t, mode)
		c.Preload([]string{"/data/a", "/data/b"}, 20)
		run(sim, c, func(p *env.Proc, fs fsapi.FS) {
			if _, err := fs.Stat(p, "/data/a/f7"); err != nil {
				t.Errorf("%v stat preloaded: %v", mode, err)
			}
			a, err := fs.StatDir(p, "/data/b")
			if err != nil || a.Size != 20 {
				t.Errorf("%v statdir preloaded: size=%d err=%v", mode, a.Size, err)
			}
		})
	}
}

// TestPlacementShapesMatchTab1 verifies Tab. 1's structural claims: under
// grouping, a directory's children colocate with the directory; under
// separation, children spread across servers.
func TestPlacementShapesMatchTab1(t *testing.T) {
	simG := env.NewSim(9)
	g := New(simG, Options{Mode: InfiniFS, Servers: 8, Clients: 1, Costs: env.Costs{}})
	simG.Shutdown()
	simS := env.NewSim(9)
	s := New(simS, Options{Mode: CFS, Servers: 8, Clients: 1, Costs: env.Costs{}})
	simS.Shutdown()

	pid := g.nextID()
	groupServers := map[*bserver]bool{}
	sepServers := map[*bserver]bool{}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("f%d", i)
		groupServers[g.fileServer(pid, name)] = true
		sepServers[s.fileServer(pid, name)] = true
	}
	if len(groupServers) != 1 {
		t.Errorf("grouping spread one directory's files over %d servers", len(groupServers))
	}
	if len(sepServers) < 4 {
		t.Errorf("separation used only %d servers for 200 files", len(sepServers))
	}
}

func TestCephSubtreePinning(t *testing.T) {
	sim := env.NewSim(9)
	defer sim.Shutdown()
	c := New(sim, Options{Mode: Ceph, Servers: 8, Clients: 1, Costs: env.Costs{}})
	// Everything under one top-level directory shares a server.
	s1 := c.subtreeOf("/top/a/b")
	s2 := c.subtreeOf("/top/x")
	s3 := c.subtreeOf("/top")
	if s1 != s2 || s2 != s3 {
		t.Error("subtree pinning split one subtree")
	}
}

func TestDirRecordRoundTrip(t *testing.T) {
	r := &dirRecord{Perm: 0o755, Size: 42, Mtime: 9999, Subtree: 3}
	got := decodeDir(encodeDir(r))
	if *got != *r {
		t.Fatalf("got %+v want %+v", got, r)
	}
}
