package datanode_test

import (
	"errors"
	"fmt"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// deploy stands up a cluster with a data plane on a fresh simulation.
func deploy(t *testing.T, seed int64, nodes, r int) (*env.Sim, *cluster.Cluster) {
	t.Helper()
	sim := env.NewSim(seed)
	t.Cleanup(sim.Shutdown)
	c := cluster.New(sim, cluster.Options{
		Servers: 2, Clients: 2, DataNodes: nodes, DataReplication: r,
		SwitchIndexBits: 8, Costs: env.DefaultCosts(),
	})
	return sim, c
}

// TestWriteReplicatesBeforeAck: an acknowledged write is on every replica —
// crash the primary immediately after the ack and the backup must still
// serve (and re-seed) the acked version.
func TestWriteReplicatesBeforeAck(t *testing.T) {
	_, c := deploy(t, 1, 4, 2)
	chunk := wire.ChunkKey{File: 7, Stripe: 3}
	var ver uint64
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		v, err := cl.WriteChunk(p, c.DataNodes[0], chunk, 4096)
		if err != nil {
			t.Errorf("write: %v", err)
		}
		ver = v
	})
	// The ack implies both replicas applied — synchronously, not eventually.
	if got := c.DataServers[0].ChunkVer(chunk); got != ver {
		t.Errorf("primary holds version %d, acked %d", got, ver)
	}
	if got := c.DataServers[1].ChunkVer(chunk); got != ver {
		t.Errorf("backup holds version %d, acked %d (ack before replication?)", got, ver)
	}
}

// TestLinkRuleDupReorderPreservesDedup mirrors the metadata-side tests in
// internal/cluster and internal/baseline: duplication and reorder on every
// client↔data link must not re-execute chunk writes. The old inline data
// stub had no (client, RPC) dedup, so every duplicated DataReq re-executed
// — with versioned chunks that bug is visible as a version above the write
// count.
func TestLinkRuleDupReorderPreservesDedup(t *testing.T) {
	sim, c := deploy(t, 3, 4, 2)
	rule := env.LinkRule{Dup: 0.3, Jitter: 4 * env.Microsecond}
	for _, dn := range c.DataNodes {
		sim.Net().SetLink(c.ClientID(0), dn, rule)
		sim.Net().SetLink(dn, c.ClientID(0), rule)
	}
	const writes = 30
	chunk := wire.ChunkKey{File: 9, Stripe: 0}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for i := 0; i < writes; i++ {
			ver, err := cl.WriteChunk(p, c.DataNodes[2], chunk, 512)
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if ver != uint64(i+1) {
				t.Errorf("write %d acked version %d (duplication re-executed a write)", i, ver)
				return
			}
		}
		ver, _, err := cl.ReadChunk(p, c.DataNodes[2], chunk)
		if err != nil || ver != writes {
			t.Errorf("final read ver=%d err=%v, want %d", ver, err, writes)
		}
	})
}

// TestCrashRecoveryReplicates: a fail-stopped data node loses its volatile
// store; recovery must pull every chunk it is a replica of back from its
// peers before serving, so no acknowledged version regresses.
func TestCrashRecoveryReplicates(t *testing.T) {
	sim, c := deploy(t, 5, 4, 2)
	acked := map[wire.ChunkKey]uint64{}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for f := 0; f < 8; f++ {
			for s := 0; s < 2; s++ {
				chunk := wire.ChunkKey{File: uint32(f), Stripe: uint32(s)}
				node := c.DataNodes[f%len(c.DataNodes)]
				ver, err := cl.WriteChunk(p, node, chunk, 1024)
				if err != nil {
					t.Fatalf("write %v: %v", chunk, err)
				}
				acked[chunk] = ver
			}
		}
	})
	crash := 1
	before := c.DataServers[crash].Chunks()
	if before == 0 {
		t.Fatal("crash target holds no chunks; placement broken")
	}
	c.CrashDataNode(crash)
	fut := c.RecoverDataNode(crash)
	sim.Run()
	if v, ok := fut.Peek(); !ok {
		t.Fatal("recovery never completed")
	} else if err, isErr := v.(error); isErr {
		t.Fatalf("recovery failed: %v", err)
	}
	if got := c.DataServers[crash].Chunks(); got != before {
		t.Errorf("recovered node holds %d chunks, crashed with %d", got, before)
	}
	if c.DataNodesDown() != 0 {
		t.Errorf("DataNodesDown=%d after recovery", c.DataNodesDown())
	}
	// Every acked version is readable again, wherever it lives.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for f := 0; f < 8; f++ {
			for s := 0; s < 2; s++ {
				chunk := wire.ChunkKey{File: uint32(f), Stripe: uint32(s)}
				node := c.DataNodes[f%len(c.DataNodes)]
				ver, _, err := cl.ReadChunk(p, node, chunk)
				if err != nil || ver != acked[chunk] {
					t.Errorf("chunk %v: ver=%d err=%v, acked %d", chunk, ver, err, acked[chunk])
				}
			}
		}
	})
}

// TestWriteUnackedWhileBackupDown: with a backup fail-stopped, writes whose
// replica set includes it must NOT be acknowledged (they time out) — the
// durability contract says an ack implies r copies. After recovery the same
// write path succeeds again.
func TestWriteUnackedWhileBackupDown(t *testing.T) {
	sim, c := deploy(t, 7, 2, 2)
	chunk := wire.ChunkKey{File: 1, Stripe: 0}
	c.CrashDataNode(1) // backup of everything primary-ed on node 0
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		_, err := cl.WriteChunk(p, c.DataNodes[0], chunk, 64)
		if !errors.Is(err, core.ErrTimeout) {
			t.Errorf("write with backup down: err=%v, want timeout (unacked)", err)
		}
	})
	fut := c.RecoverDataNode(1)
	sim.Run()
	if _, ok := fut.Peek(); !ok {
		t.Fatal("recovery never completed")
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		ver, err := cl.WriteChunk(p, c.DataNodes[0], chunk, 64)
		if err != nil {
			t.Errorf("post-recovery write: %v", err)
		}
		if got := c.DataServers[1].ChunkVer(chunk); got != ver {
			t.Errorf("backup holds %d, acked %d", got, ver)
		}
	})
}

// TestRecoveringNodeDoesNotServeStaleReads: between restart and the end of
// the re-replication pull the node's store is part-empty; serving a read
// then would return version 0 for an acked chunk — a lost acknowledged
// write. The node must drop client requests until recovery completes.
func TestRecoveringNodeDoesNotServeStaleReads(t *testing.T) {
	sim, c := deploy(t, 11, 4, 2)
	chunk := wire.ChunkKey{File: 2, Stripe: 0}
	var acked uint64
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		v, err := cl.WriteChunk(p, c.DataNodes[2], chunk, 256)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		acked = v
	})
	c.CrashDataNode(2)
	// Issue the read concurrently with the recovery: the client retries
	// until the node serves again, and must then see the acked version.
	fut := c.RecoverDataNode(2)
	done := false
	sim.Spawn(c.ClientID(0), func(p *env.Proc) {
		cl := c.Client(0)
		ver, _, err := cl.ReadChunk(p, c.DataNodes[2], chunk)
		if err != nil {
			t.Errorf("read during recovery: %v", err)
		} else if ver != acked {
			t.Errorf("read during recovery saw version %d, acked %d (served a stale store)", ver, acked)
		}
		done = true
	})
	sim.Run()
	if !done {
		t.Fatal("read never completed")
	}
	if _, ok := fut.Peek(); !ok {
		t.Fatal("recovery never completed")
	}
}

// TestReplicationFactorCapped: r larger than the deployed node count is
// capped, and single-node deployments still ack writes.
func TestReplicationFactorCapped(t *testing.T) {
	_, c := deploy(t, 13, 1, 3)
	if c.Opts.DataReplication != 1 {
		t.Fatalf("replication=%d, want capped to 1", c.Opts.DataReplication)
	}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for i := 1; i <= 3; i++ {
			ver, err := cl.WriteChunk(p, c.DataNodes[0], wire.ChunkKey{File: 1}, 64)
			if err != nil || ver != uint64(i) {
				t.Errorf("write %d: ver=%d err=%v", i, ver, err)
			}
		}
	})
}

// TestDataRetryHonorsConfiguredTimeout: the client's data retransmission
// budget scales from the configured RetryTimeout (20× per try, 8 tries)
// instead of a hardcoded 8×40ms — the session's WithRetryTimeout governs
// the data path like every metadata op.
func TestDataRetryHonorsConfiguredTimeout(t *testing.T) {
	for _, rt := range []env.Duration{500 * env.Microsecond, 2 * env.Millisecond} {
		t.Run(fmt.Sprintf("rt=%dus", rt/env.Microsecond), func(t *testing.T) {
			sim := env.NewSim(17)
			defer sim.Shutdown()
			c := cluster.New(sim, cluster.Options{
				Servers: 2, Clients: 1, DataNodes: 2,
				SwitchIndexBits: 8, Costs: env.DefaultCosts(),
				RetryTimeout: rt,
			})
			c.CrashDataNode(0)
			var elapsed env.Duration
			c.Run(0, func(p *env.Proc, cl *client.Client) {
				t0 := p.Now()
				_, err := cl.WriteChunk(p, c.DataNodes[0], wire.ChunkKey{File: 1}, 64)
				elapsed = p.Now() - t0
				if !errors.Is(err, core.ErrTimeout) {
					t.Errorf("err=%v, want timeout", err)
				}
			})
			want := 8 * 20 * rt
			if elapsed != want {
				t.Errorf("gave up after %dus, want 8 tries x 20x%dus = %dus",
					elapsed/env.Microsecond, rt/env.Microsecond, want/env.Microsecond)
			}
		})
	}
}

// TestReadServesOnlyCommitted: a write applied on the primary but stuck
// replicating (backup down) must stay invisible to readers — surfacing it
// would let a reader observe content that a single fail-stop then erases.
func TestReadServesOnlyCommitted(t *testing.T) {
	sim, c := deploy(t, 19, 2, 2)
	chunk := wire.ChunkKey{File: 4, Stripe: 0}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if _, err := cl.WriteChunk(p, c.DataNodes[0], chunk, 100); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	})
	c.CrashDataNode(1)
	// Writer parks in replication; a concurrent reader must still see the
	// last committed version (1), not the pending apply (2).
	sim.Spawn(c.ClientID(0), func(p *env.Proc) {
		cl := c.Client(0)
		if _, err := cl.WriteChunk(p, c.DataNodes[0], chunk, 200); !errors.Is(err, core.ErrTimeout) {
			t.Errorf("write with backup down: err=%v, want timeout", err)
		}
	})
	readDone := false
	sim.Spawn(c.ClientID(1), func(p *env.Proc) {
		cl := c.Client(1)
		p.Sleep(50 * env.Microsecond) // land mid-replication-stall
		ver, _, err := cl.ReadChunk(p, c.DataNodes[0], chunk)
		if err != nil {
			t.Errorf("read: %v", err)
		} else if ver != 1 {
			t.Errorf("read saw version %d, want committed 1 (dirty read of an unreplicated write)", ver)
		}
		readDone = true
	})
	sim.Run()
	if !readDone {
		t.Fatal("reader never completed")
	}
}

// TestRecoveryFailsWithNoPeers: a recovery pull that reaches no peer must
// fail (not serve an empty store as success) and leave the node
// fail-stopped so a post-heal retry can succeed.
func TestRecoveryFailsWithNoPeers(t *testing.T) {
	sim, c := deploy(t, 23, 2, 2)
	chunk := wire.ChunkKey{File: 5, Stripe: 0}
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if _, err := cl.WriteChunk(p, c.DataNodes[0], chunk, 100); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	})
	c.CrashDataNode(0)
	c.CrashDataNode(1)
	fut := c.RecoverDataNode(0)
	sim.Run()
	v, ok := fut.Peek()
	if !ok {
		t.Fatal("recovery never completed")
	}
	if _, isErr := v.(error); !isErr {
		t.Fatalf("recovery with every peer down returned %v, want an error", v)
	}
	if !c.DataServers[0].Node().Down() {
		t.Error("failed recovery left the node up")
	}
	if c.DataNodesDown() != 2 {
		t.Errorf("DataNodesDown=%d, want 2 (failed recovery still counts)", c.DataNodesDown())
	}
	// Post-heal retry: both recover concurrently and answer each other's
	// pulls (the chaos harness's post-run path).
	f0 := c.RecoverDataNode(0)
	f1 := c.RecoverDataNode(1)
	sim.Run()
	for i, f := range []*env.Future{f0, f1} {
		v, ok := f.Peek()
		if !ok {
			t.Fatalf("retry recovery %d never completed", i)
		}
		if err, isErr := v.(error); isErr {
			t.Fatalf("retry recovery %d failed: %v", i, err)
		}
	}
	if c.DataNodesDown() != 0 {
		t.Errorf("DataNodesDown=%d after retries", c.DataNodesDown())
	}
}

// TestRestartedNodeDrawsFreshCtl: two incarnations of a data node booted
// 2^24 ns apart must not send the same recovery-pull control id, or a late
// reply to the first would complete the second's pull. The ids used to keep
// only the low 24 bits of a clock-seeded counter.
func TestRestartedNodeDrawsFreshCtl(t *testing.T) {
	sim := env.NewSim(1)
	defer sim.Shutdown()
	const self, peer env.NodeID = 200, 201
	var ctls []uint64
	sim.AddNode(peer, env.NodeConfig{Cores: 1, Handler: func(p *env.Proc, from env.NodeID, msg any) {
		if req, ok := msg.(*wire.Packet).Body.(*wire.DataPullReq); ok {
			ctls = append(ctls, req.ID)
			p.Send(from, &wire.Packet{Dst: from, Origin: peer, Body: &wire.DataPullResp{CtlResp: wire.CtlResp{ID: req.ID}}})
		}
	}})
	cfg := datanode.Config{ID: self, Nodes: 2, NodeOf: func(slot int) env.NodeID { return self + env.NodeID(slot) }}
	boot := func() {
		n := datanode.Restart(sim, cfg)
		sim.Spawn(self, func(p *env.Proc) {
			if err := n.Recover(p); err != nil {
				t.Error(err)
			}
			n.Crash()
		})
	}
	boot()
	sim.After(1<<24, boot)
	sim.Run()
	if len(ctls) != 2 || ctls[0] == ctls[1] {
		t.Fatalf("the two incarnations' pulls carried control ids %#x, want two distinct ones", ctls)
	}
}
