package datanode_test

import (
	"runtime"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// writeRig is the write budget's deployment: one client and two data nodes on
// a Sim, r = 2, so every write the client sends to the primary (slot 0) is
// replicated to the backup before it is acknowledged. It returns a function
// that runs writes [from, to) one after another.
func writeRig(tb testing.TB) func(from, to int) {
	sim := env.NewSim(3)
	tb.Cleanup(sim.Shutdown)
	for slot := 0; slot < 2; slot++ {
		datanode.New(sim, datanode.Config{Slot: slot, Nodes: 2, Replication: 2, Costs: env.DefaultCosts()})
	}
	cl := client.New(sim, client.Config{ID: 9000, Costs: env.DefaultCosts()})
	chunk := wire.ChunkKey{File: 7, Stripe: 3}
	return func(from, to int) {
		sim.Spawn(cl.ID(), func(p *env.Proc) {
			for i := from; i < to; i++ {
				if ver, err := cl.WriteChunk(p, datanode.NodeOf(0), chunk, 4096); err != nil || ver != uint64(i+1) {
					tb.Errorf("write %d: version %d, %v", i, ver, err)
					return
				}
			}
		})
		sim.Run()
	}
}

// TestWriteAllocationBudget keeps a replicated write's allocation count from
// rotting (writeRig). The budget is the count measured when every message but
// the memoized response was carved with its packet and the client's call
// waited on its process's reply slot, 8.07 (12.07 before), plus 1.
func TestWriteAllocationBudget(t *testing.T) {
	const writes, warm, budget = 200, 20, 9.07
	write := writeRig(t)
	write(0, warm) // warm the served memos and the worker pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	write(warm, writes)
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(writes-warm)
	t.Logf("write: %.2f allocs/op (budget %.2f)", perOp, budget)
	if perOp > budget {
		t.Errorf("write: %.2f allocs/op, over the budget of %.2f", perOp, budget)
	}
}

// BenchmarkReplicatedWrite is the data node's layer benchmark (`make
// bench-layers`): one client write per op through the primary and one backup
// on writeRig.
func BenchmarkReplicatedWrite(b *testing.B) {
	write := writeRig(b)
	write(0, 20)
	b.ReportAllocs()
	b.ResetTimer()
	write(20, 20+b.N)
}
