package figures

import (
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/server"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// Fig14 reproduces Fig. 14: the contribution breakdown. File creates in a
// single shared directory, eight servers; Baseline (synchronous updates),
// +Async (asynchronous updates, entry-by-entry application), +Compaction
// (the full design). Shapes: +Async cuts latency but not throughput (the
// aggregation applies updates serially at the owner); +Compaction lifts
// throughput and scales with cores per server.
func Fig14(sc Scale) Table {
	t := Table{ID: "Fig14", Title: "contribution breakdown: create in one directory",
		Header: []string{"config", "cores", "Kops/s", "mean µs", "p99 µs"}}
	ns := workload.SingleDir(sc.FilesPerDir)
	configs := []struct {
		name    string
		updates server.UpdateMode
	}{
		{"Baseline", server.UpdateSync},
		{"+Async", server.UpdateAsync},
		{"+Compaction", server.UpdateCompacted},
	}
	for _, cfg := range configs {
		for _, cores := range sc.CoreCounts {
			var rc stats.Counters
			sim, sys, done := deploy(9, sysSwitchFS, 8, cores, 8, 0, func(o *cluster.Options) {
				o.Updates = cfg.updates
			})
			ns.Preload(sys)
			res := runOn(sim, sys, ns, ns.FreshFiles(core.OpCreate), sc.Workers, sc.OpsPerWorker, 8, &rc)
			done()
			t.AddRow(rc, []string{
				cfg.name, itoa(cores), kops(res.ThroughputOps()),
				us(res.All.Mean()), us(res.All.Percentile(0.99)),
			})
		}
	}
	return t
}

// Overflow reproduces §7.3.2: create throughput and latency when every
// dirty-set insert is forced to fail, falling back to synchronous updates.
// Shape: throughput collapses toward Baseline and latency rises.
func Overflow(sc Scale) Table {
	t := Table{ID: "Overflow", Title: "dirty-set overflow fallback: create in one directory",
		Header: []string{"config", "Kops/s", "mean µs"}}
	ns := workload.SingleDir(sc.FilesPerDir)
	for _, forced := range []bool{false, true} {
		var rc stats.Counters
		sim, sys, done := deploy(10, sysSwitchFS, 8, 4, 8, 0, func(o *cluster.Options) {
			o.ForceOverflow = forced
		})
		ns.Preload(sys)
		res := runOn(sim, sys, ns, ns.FreshFiles(core.OpCreate), sc.Workers, sc.OpsPerWorker, 8, &rc)
		done()
		name := "inserts succeed"
		if forced {
			name = "inserts overflow"
		}
		t.AddRow(rc, []string{name, kops(res.ThroughputOps()), us(res.All.Mean())})
	}
	return t
}
