package figures

import (
	"switchfs/internal/core"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// fig12Systems is the comparison set of §7.2.
var fig12Systems = []sysKind{sysCeph, sysIndexFS, sysInfiniFS, sysCFS, sysSwitchFS}

// fig12Ops are the six per-op panels of Fig. 12.
var fig12Ops = []core.Op{core.OpCreate, core.OpDelete, core.OpMkdir, core.OpRmdir, core.OpStat, core.OpStatDir}

// Fig12a reproduces Fig. 12(a): peak throughput of each metadata operation
// in a single very large directory as servers scale. Shapes: SwitchFS scales
// for the double-inode ops (fine-grained partitioning + async updates +
// compaction); E-CFS barely scales (per-directory serialization); E-InfiniFS
// is bound by the directory's single server; CephFS stays under 100 Kops/s.
// IndexFS's single-large-directory results are omitted like the paper's
// (its implementation "consistently crashes").
func Fig12a(sc Scale) Table {
	t := Table{ID: "Fig12a", Title: "single large directory: throughput (Kops/s)",
		Header: []string{"op", "servers", "CephFS", "Emulated-InfiniFS", "Emulated-CFS", "SwitchFS"}}
	systems := []sysKind{sysCeph, sysInfiniFS, sysCFS, sysSwitchFS}
	ns := workload.SingleDir(sc.FilesPerDir * 4)
	for _, op := range fig12Ops {
		for _, n := range sc.ServerCounts {
			row := []string{op.String(), itoa(n)}
			var rc stats.Counters
			for _, k := range systems {
				sim, sys, done := deploy(6, k, n, 4, 8, 0, nil)
				ns.Preload(sys)
				workers := sc.Workers * 4 // expose server-side scaling limits
				if k == sysCeph {
					workers = sc.Workers / 2 // the heavy stack needs no extra pressure
				}
				res := runOn(sim, sys, genFor(ns, op), workers, sc.OpsPerWorker, 8, &rc)
				done()
				row = append(row, kops(res.ThroughputOps()))
			}
			t.AddRow(rc, row)
		}
	}
	return t
}

// Fig12b reproduces Fig. 12(b): the same matrix over many directories —
// little contention, so every system runs at its per-op efficiency. Shapes:
// SwitchFS and E-InfiniFS lead on create/delete (local execution), SwitchFS
// leads on mkdir (async beats the baselines' distributed transactions),
// stat and statdir scale for every fine-partitioned system.
func Fig12b(sc Scale) Table {
	t := Table{ID: "Fig12b", Title: "multiple directories: throughput (Kops/s)",
		Header: []string{"op", "servers", "CephFS", "IndexFS", "Emulated-InfiniFS", "Emulated-CFS", "SwitchFS"}}
	ns := workload.MultiDir(sc.Dirs, sc.FilesPerDir)
	for _, op := range fig12Ops {
		for _, n := range sc.ServerCounts {
			row := []string{op.String(), itoa(n)}
			var rc stats.Counters
			for _, k := range fig12Systems {
				if k == sysIndexFS && op == core.OpRmdir {
					row = append(row, "-") // incomplete in IndexFS (§7.2.1)
					continue
				}
				sim, sys, done := deploy(7, k, n, 4, 8, 0, nil)
				ns.Preload(sys)
				workers := sc.Workers
				if k == sysCeph {
					workers = sc.Workers / 2
				}
				res := runOn(sim, sys, genFor(ns, op), workers, sc.OpsPerWorker, 8, &rc)
				done()
				row = append(row, kops(res.ThroughputOps()))
			}
			t.AddRow(rc, row)
		}
	}
	return t
}

// Fig13 reproduces Fig. 13: average operation latency with a single
// sequential client on 8 servers. Shapes: SwitchFS cuts the double-inode
// latencies (single server + single round trip); its statdir is modestly
// higher than the baselines' (the extra correctness checks); CephFS is two
// orders of magnitude slower.
func Fig13(sc Scale) Table {
	t := Table{ID: "Fig13", Title: "operation latency (µs), single client, 8 servers",
		Header: []string{"op", "CephFS", "IndexFS", "Emulated-InfiniFS", "Emulated-CFS", "SwitchFS"}}
	ns := workload.MultiDir(sc.Dirs, sc.FilesPerDir)
	ops := []core.Op{core.OpStat, core.OpStatDir, core.OpCreate, core.OpMkdir, core.OpDelete, core.OpRmdir}
	for _, op := range ops {
		row := []string{op.String()}
		var rc stats.Counters
		for _, k := range fig12Systems {
			if k == sysIndexFS && op == core.OpRmdir {
				row = append(row, "-")
				continue
			}
			sim, sys, done := deploy(8, k, 8, 4, 1, 0, nil)
			ns.Preload(sys)
			res := runOn(sim, sys, genFor(ns, op), 1, sc.OpsPerWorker*2, 1, &rc)
			done()
			row = append(row, us(res.All.Mean()))
		}
		t.AddRow(rc, row)
	}
	return t
}
