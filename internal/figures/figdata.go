package figures

import (
	"fmt"

	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/stats"
	"switchfs/internal/wire"
)

// FigData is the data-plane figure family (§7.6): striped chunk throughput
// across data-node counts and replication factors, plus a fail-stop
// recovery timeline (crash one data node under load, re-replicate its
// stripes, verify no acknowledged write was lost). Placement comes from the
// metadata path end to end — files are created and opened through the
// normal protocol and chunks are striped over the DataLoc slots Open
// returned, exactly as File.Write does. sc.Seed seeds the simulations.
func FigData(sc Scale) Table {
	seed := sc.seed()
	t := Table{
		ID:    "data",
		Title: "striped data plane: replicated chunk throughput and recovery (§7.6)",
		Header: []string{
			"config", "writes", "reads", "wr Kops/s", "rd Kops/s", "recovery ms", "repulled",
		},
	}
	workers := sc.Workers / 8
	if workers < 4 {
		workers = 4
	}
	if workers > 16 {
		workers = 16
	}
	ops := sc.OpsPerWorker

	for _, cfg := range []struct{ nodes, r int }{
		{2, 2}, {4, 1}, {4, 2}, {4, 3}, {8, 2},
	} {
		wr, rd, nw, nr, rc := dataThroughput(seed, cfg.nodes, cfg.r, workers, ops)
		t.AddRow(rc, []string{
			fmt.Sprintf("%d nodes r=%d", cfg.nodes, cfg.r),
			fmt.Sprintf("%d", nw), fmt.Sprintf("%d", nr),
			kops(wr), kops(rd), "-", "-",
		})
	}

	recMs, repulled, rc := dataRecovery(seed, 4, 2, workers, ops)
	t.AddRow(rc, []string{
		"4 nodes r=2 crash+recover", "-", "-", "-", "-",
		fmt.Sprintf("%.3f", recMs), fmt.Sprintf("%d", repulled),
	})
	return t
}

// dataDeploy stands up a cluster with a data plane and one opened file per
// worker, returning each worker's chunk-file hash and DataLoc placement.
func dataDeploy(seed int64, nodes, r, workers int) (*env.Sim, *cluster.Cluster, [][]uint32) {
	sim := env.NewSim(seed)
	c := cluster.New(sim, cluster.Options{
		Servers: 4, Clients: 4, DataNodes: nodes, DataReplication: r,
		SwitchIndexBits: 12, Costs: env.DefaultCosts(),
	})
	locs := make([][]uint32, workers)
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Mkdir(p, "/data", 0); err != nil {
			panic(fmt.Sprintf("figures: data mkdir: %v", err))
		}
		for w := 0; w < workers; w++ {
			path := fmt.Sprintf("/data/f%03d", w)
			if err := cl.Create(p, path, 0); err != nil {
				panic(fmt.Sprintf("figures: data create: %v", err))
			}
			_, loc, err := cl.Open(p, path)
			if err != nil || len(loc) == 0 {
				panic(fmt.Sprintf("figures: open %s returned loc=%v err=%v", path, loc, err))
			}
			locs[w] = loc
		}
	})
	return sim, c, locs
}

// chunkTarget maps worker w's stripe s onto (chunk, primary node) via the
// file's DataLoc placement — datanode.StripeSlot, the rule File.Write uses.
func chunkTarget(c *cluster.Cluster, locs [][]uint32, w, s int) (wire.ChunkKey, env.NodeID) {
	chunk := wire.ChunkKey{File: uint32(w), Stripe: uint32(s)}
	node := c.DataNodes[datanode.StripeSlot(locs[w], s, len(c.DataNodes))]
	return chunk, node
}

// dataThroughput drives closed-loop chunk writes, then reads, and reports
// both throughputs (ops/s of virtual time) and the op/packet tally.
func dataThroughput(seed int64, nodes, r, workers, ops int) (wr, rd float64, nw, nr int, rc stats.Counters) {
	sim, c, locs := dataDeploy(seed, nodes, r, workers)
	defer sim.Shutdown()

	phase := func(write bool) (float64, int) {
		t0 := sim.Now()
		end := t0
		total := 0
		for w := 0; w < workers; w++ {
			w := w
			cl := c.Client(w)
			sim.Spawn(cl.ID(), func(p *env.Proc) {
				for j := 0; j < ops; j++ {
					chunk, node := chunkTarget(c, locs, w, j%4)
					var err error
					if write {
						_, err = cl.WriteChunk(p, node, chunk, 4096)
					} else {
						_, _, err = cl.ReadChunk(p, node, chunk)
					}
					if err != nil {
						panic(fmt.Sprintf("figures: data %v op failed: %v", write, err))
					}
					total++
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
		sim.Run()
		// The makespan ends when the last worker finishes: the queue also
		// drains each final RPC's (cancelled) retransmission timer, which
		// would otherwise bill 20× the retry timeout to the phase.
		dur := end - t0
		if dur <= 0 {
			return 0, total
		}
		return float64(total) / (float64(dur) / 1e9), total
	}
	wr, nw = phase(true)
	rd, nr = phase(false)
	rc = stats.Counters{
		Ops:              uint64(nw + nr),
		PacketsDelivered: sim.Delivered,
		PacketsDropped:   sim.Dropped,
	}
	return wr, rd, nw, nr, rc
}

// dataRecovery writes a chunk population, fail-stops one data node, runs
// §7.6-style recovery (restart + re-replication pull), and verifies every
// acknowledged version is still readable — a lost acked content write
// fails the figure loudly. It reports the recovery's virtual duration and
// the number of records re-replicated.
func dataRecovery(seed int64, nodes, r, workers, ops int) (recMs float64, repulled uint64, rc stats.Counters) {
	sim, c, locs := dataDeploy(seed, nodes, r, workers)
	defer sim.Shutdown()

	acked := make(map[wire.ChunkKey]uint64)
	for w := 0; w < workers; w++ {
		w := w
		cl := c.Client(w)
		sim.Spawn(cl.ID(), func(p *env.Proc) {
			for j := 0; j < ops; j++ {
				chunk, node := chunkTarget(c, locs, w, j%4)
				ver, err := cl.WriteChunk(p, node, chunk, 4096)
				if err != nil {
					panic(fmt.Sprintf("figures: data recovery write: %v", err))
				}
				acked[chunk] = ver
			}
		})
	}
	sim.Run()

	crash := 1 % nodes
	c.CrashDataNode(crash)
	fut := c.RecoverDataNode(crash)
	sim.Run()
	v, ok := fut.Peek()
	if !ok {
		panic("figures: data-node recovery did not complete")
	}
	if err, isErr := v.(error); isErr {
		panic(err)
	}
	recMs = float64(v.(env.Duration)) / 1e6
	repulled = c.DataServers[crash].Stats.PulledChunks

	// Post-recovery audit through the normal read path.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for w := 0; w < workers; w++ {
			for s := 0; s < 4 && s < ops; s++ {
				chunk, node := chunkTarget(c, locs, w, s)
				ver, _, err := cl.ReadChunk(p, node, chunk)
				if err != nil {
					panic(fmt.Sprintf("figures: post-recovery read: %v", err))
				}
				if want := acked[chunk]; ver != want {
					panic(fmt.Sprintf("figures: lost acked content write: chunk %v version %d, acked %d",
						chunk, ver, want))
				}
			}
		}
	})
	rc = stats.Counters{
		Ops:              uint64(workers * ops),
		PacketsDelivered: sim.Delivered,
		PacketsDropped:   sim.Dropped,
	}
	return recMs, repulled, rc
}
