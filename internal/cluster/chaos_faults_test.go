package cluster

import (
	"fmt"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/env"
)

// Tests for fault orchestration racing reconfiguration and for the per-link
// fault rules feeding the chaos subsystem (internal/chaos).

// TestCrashRecoveryDuringReconfigure races a server fail-stop and its
// recovery against an in-flight Reconfigure: the reconfiguration must
// neither deadlock nor lose migrated entries, and the recovered server must
// rejoin the grown cluster consistently.
func TestCrashRecoveryDuringReconfigure(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 40; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/f%d", i), 0); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
	})

	// Crash strikes first; the reconfiguration starts while the victim is
	// down; recovery lands while the reconfiguration is still in flight
	// (its quiesce/flush phase waits out the victim's push retries).
	var recFut *env.Future
	c.CrashServer(2)
	fut := c.Reconfigure(6)
	s.After(500*env.Microsecond, func() { recFut = c.RecoverServer(2) })
	s.Run()

	if v, ok := fut.Peek(); !ok {
		t.Fatal("reconfiguration did not complete (deadlock?)")
	} else if err, isErr := v.(error); isErr {
		t.Fatalf("reconfigure: %v", err)
	}
	if recFut == nil {
		t.Fatal("recovery never started")
	}
	if v, ok := recFut.Peek(); !ok {
		t.Fatal("recovery did not complete (deadlock?)")
	} else if err, isErr := v.(error); isErr {
		t.Fatalf("recover: %v", err)
	}
	if len(c.Servers) != 6 {
		t.Fatalf("cluster has %d servers, want 6", len(c.Servers))
	}

	// No migrated (or recovered) entry may be lost, and the grown cluster
	// must serve fresh writes.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 40 {
			t.Errorf("statdir after race: size=%d err=%v, want 40", attr.Size, err)
			return
		}
		for i := 0; i < 40; i++ {
			if _, err := cl.Stat(p, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Errorf("stat f%d lost across reconfigure+crash: %v", i, err)
				return
			}
		}
		for i := 0; i < 10; i++ {
			if err := cl.Create(p, fmt.Sprintf("/d/post%d", i), 0); err != nil {
				t.Errorf("create after race: %v", err)
				return
			}
		}
		attr, err = cl.StatDir(p, "/d")
		if err != nil || attr.Size != 50 {
			t.Errorf("final size=%d err=%v, want 50", attr.Size, err)
		}
	})
}

// TestReconfigureWhileServerStaysDown covers the other interleaving: the
// victim recovers only after the reconfiguration completed. Its WAL-rebuilt
// change-logs must re-deliver under the new ring.
func TestReconfigureWhileServerStaysDown(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 30; i++ {
			cl.Create(p, fmt.Sprintf("/d/f%d", i), 0)
		}
	})
	c.CrashServer(1)
	fut := c.Reconfigure(6)
	s.Run()
	if _, ok := fut.Peek(); !ok {
		t.Fatal("reconfiguration did not complete with a server down")
	}
	rec := c.RecoverServer(1)
	s.Run()
	if v, ok := rec.Peek(); !ok {
		t.Fatal("late recovery did not complete")
	} else if err, isErr := v.(error); isErr {
		t.Fatalf("recover: %v", err)
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		attr, err := cl.StatDir(p, "/d")
		if err != nil || attr.Size != 30 {
			t.Errorf("size=%d err=%v, want 30", attr.Size, err)
		}
		for i := 0; i < 30; i++ {
			if _, err := cl.Stat(p, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Errorf("stat f%d: %v", i, err)
				return
			}
		}
	})
}

// requireServing fails the test for every server not serving, then requires
// every one of the files /d/f0../d/f<n-1> to stat.
func requireServing(t *testing.T, c *Cluster, files int) {
	t.Helper()
	for i, srv := range c.Servers {
		if !srv.Serving() {
			t.Errorf("server %d is not serving after the reconfiguration finished", i)
		}
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for i := 0; i < files; i++ {
			if _, err := cl.Stat(p, fmt.Sprintf("/d/f%d", i)); err != nil {
				t.Errorf("stat /d/f%d: %v", i, err)
				return
			}
		}
	})
}

// TestRecoveryOverlappingReconfigureServes: a Reconfigure that starts while
// a server replays its WAL must not leave the recovered server refusing
// requests once both are done. The live reconfiguration has no step that
// resumes servers, so recovery must not stop serving because one is running.
func TestRecoveryOverlappingReconfigureServes(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 40; i++ {
			cl.Create(p, fmt.Sprintf("/d/f%d", i), 0)
		}
	})
	c.CrashServer(1)
	rec := c.RecoverServer(1)
	var fut *env.Future
	s.After(env.Microsecond, func() { fut = c.Reconfigure(6) })
	s.Run()
	if _, ok := rec.Peek(); !ok {
		t.Fatal("recovery did not complete")
	}
	if v, ok := fut.Peek(); !ok {
		t.Fatal("reconfiguration did not complete")
	} else if err, isErr := v.(error); isErr {
		t.Fatalf("reconfigure: %v", err)
	}
	requireServing(t, c, 40)
}

// TestSwitchRebootOverlappingReconfigureServes: a switch reboot's change-log
// flush running beside a Reconfigure leaves every server serving.
func TestSwitchRebootOverlappingReconfigureServes(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 40; i++ {
			cl.Create(p, fmt.Sprintf("/d/f%d", i), 0)
		}
	})
	c.CrashSwitch()
	rec := c.RecoverSwitch()
	fut := c.Reconfigure(6)
	s.Run()
	if _, ok := rec.Peek(); !ok {
		t.Fatal("switch recovery did not complete")
	}
	if v, ok := fut.Peek(); !ok {
		t.Fatal("reconfiguration did not complete")
	} else if err, isErr := v.(error); isErr {
		t.Fatalf("reconfigure: %v", err)
	}
	requireServing(t, c, 40)
}

// TestLinkRuleDupReorderPreservesDedup installs per-link duplication and
// reorder rules on every client↔server link and checks the RPC dedup layer
// still yields exactly-once effects — the per-link generalization of the
// global DupProb tests above.
func TestLinkRuleDupReorderPreservesDedup(t *testing.T) {
	s, c := sim(t, Options{Servers: 4, Clients: 1})
	rule := env.LinkRule{Dup: 0.3, Jitter: 4 * env.Microsecond}
	for i := 0; i < 4; i++ {
		s.Net().SetLink(c.ClientID(0), c.ServerID(i), rule)
		s.Net().SetLink(c.ServerID(i), c.ClientID(0), rule)
	}
	baselinePkts := s.Delivered
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
			if i%3 == 0 {
				if err := cl.Delete(p, fmt.Sprintf("/d/f%d", i)); err != nil {
					t.Errorf("delete %d: %v", i, err)
					return
				}
			}
		}
		attr, err := cl.StatDir(p, "/d")
		want := int64(30 - 10)
		if err != nil || attr.Size != want {
			t.Errorf("size=%d err=%v, want %d (duplication re-executed a mutation)", attr.Size, err, want)
		}
		es, err := cl.ReadDir(p, "/d")
		if err != nil || int64(len(es)) != want {
			t.Errorf("readdir %d entries err=%v, want %d", len(es), err, want)
		}
	})
	if s.Delivered == baselinePkts {
		t.Fatal("no traffic flowed")
	}
	// The rules must have actually duplicated traffic: compare against a
	// clean run of the identical workload.
	clean := env.NewSim(3)
	t.Cleanup(clean.Shutdown)
	cc := New(clean, Options{Servers: 4, Clients: 1, SwitchIndexBits: 8})
	cc.Run(0, func(p *env.Proc, cl *client.Client) {
		cl.Mkdir(p, "/d", 0)
		for i := 0; i < 30; i++ {
			cl.Create(p, fmt.Sprintf("/d/f%d", i), 0)
			if i%3 == 0 {
				cl.Delete(p, fmt.Sprintf("/d/f%d", i))
			}
		}
		cl.StatDir(p, "/d")
		cl.ReadDir(p, "/d")
	})
	if s.Delivered <= clean.Delivered {
		t.Errorf("dup rules delivered %d packets, clean run %d — duplication never happened",
			s.Delivered, clean.Delivered)
	}
}
