package cluster

import (
	"slices"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/server"
	"switchfs/internal/workload"
)

// drainProbe reads every server's pending change-log entries and locked keys
// at the instant Drain returns, before anything else in the simulation can
// run.
type drainProbe struct {
	*Cluster
	pending, locked []int
}

func (d *drainProbe) Drain(p *env.Proc) {
	d.Cluster.Drain(p)
	for _, srv := range d.Servers {
		d.pending = append(d.pending, srv.PendingClogEntries())
		d.locked = append(d.locked, srv.LockedKeys())
	}
}

// TestDrainLeavesNothingPending runs Fig. 14's geometry — eight servers with
// two cores each, 32 workers creating 20 files each in one shared directory —
// with asynchronous updates, with and without compaction. Drain is where the
// figures stop their clocks, so when it returns every deferred update must have
// reached its directory's owner — and with no operation in flight, no server
// may hold an inode lock in its table.
func TestDrainLeavesNothingPending(t *testing.T) {
	for _, updates := range []server.UpdateMode{server.UpdateAsync, server.UpdateCompacted} {
		sim := env.NewSim(9)
		c := New(sim, Options{Servers: 8, CoresPerServer: 2, Clients: 8,
			Costs: env.DefaultCosts(), SwitchIndexBits: 14, Updates: updates})
		probe := &drainProbe{Cluster: c}
		ns := workload.SingleDir(16)
		ns.Preload(probe)
		res := workload.Run(sim, probe, workload.RunCfg{Workers: 32, OpsPerWorker: 20, Clients: 8,
			Seed: 1, Gen: ns.FreshFiles(core.OpCreate)})
		sim.Shutdown()
		if res.Errs != 0 {
			t.Errorf("updates %d: %d of %d creates failed", updates, res.Errs, res.Ops)
		}
		if want := make([]int, 8); !slices.Equal(probe.pending, want) {
			t.Errorf("updates %d: entries pending per server when Drain returned %v, want %v",
				updates, probe.pending, want)
		}
		if want := make([]int, 8); !slices.Equal(probe.locked, want) {
			t.Errorf("updates %d: locked keys per server when Drain returned %v, want %v",
				updates, probe.locked, want)
		}
	}
}
