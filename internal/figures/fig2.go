package figures

import (
	"strconv"

	"switchfs/internal/core"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// Fig2a reproduces Fig. 2(a): throughput of stat on uniformly random files
// in one shared directory, E-InfiniFS vs E-CFS, as servers scale. The paper's
// shape: E-CFS scales linearly (per-file hashing balances load), E-InfiniFS
// stays flat (every file inode lives on the shared directory's server).
func Fig2a(sc Scale) Table {
	t := Table{ID: "Fig2a", Title: "stat throughput in a shared directory (Mops/s)",
		Header: []string{"servers", "Emulated-InfiniFS", "Emulated-CFS"}}
	ns := workload.SingleDir(sc.FilesPerDir * sc.Dirs)
	for _, n := range sc.ServerCounts {
		row := []string{itoa(n)}
		var rc stats.Counters
		for _, k := range []sysKind{sysInfiniFS, sysCFS} {
			sim, sys, done := deploy(2, k, n, 4, 8, 0, nil)
			ns.Preload(sys)
			res := runOn(sim, sys, ns.UniformFiles(core.OpStat), sc.Workers*8, sc.OpsPerWorker/2+1, 8, &rc)
			done()
			row = append(row, mops(res.ThroughputOps()))
		}
		t.AddRow(rc, row)
	}
	return t
}

// Fig2b reproduces Fig. 2(b): single-client latency of stat and create on
// E-InfiniFS ("InfiniFS") and E-CFS ("CFS-KV"). Shape: stat latencies are
// close; E-CFS's create pays the cross-server transaction.
func Fig2b(sc Scale) Table {
	t := Table{ID: "Fig2b", Title: "operation latency (µs), single client, 8 servers",
		Header: []string{"op", "Emulated-InfiniFS", "Emulated-CFS"}}
	ns := workload.MultiDir(sc.Dirs, sc.FilesPerDir)
	for _, op := range []core.Op{core.OpStat, core.OpCreate} {
		row := []string{op.String()}
		var rc stats.Counters
		for _, k := range []sysKind{sysInfiniFS, sysCFS} {
			sim, sys, done := deploy(3, k, 8, 4, 1, 0, nil)
			ns.Preload(sys)
			res := runOn(sim, sys, genFor(ns, op), 1, sc.OpsPerWorker*4, 1, &rc)
			done()
			row = append(row, us(res.All.Mean()))
		}
		t.AddRow(rc, row)
	}
	return t
}

// Fig2c reproduces Fig. 2(c): throughput of create in one shared directory
// as servers scale. Shape: neither baseline scales — the parent directory
// serializes the updates (§3.2 Challenge #2).
func Fig2c(sc Scale) Table {
	t := Table{ID: "Fig2c", Title: "create throughput in a shared directory (Kops/s) vs servers",
		Header: []string{"servers", "Emulated-InfiniFS", "Emulated-CFS"}}
	ns := workload.SingleDir(sc.FilesPerDir)
	for _, n := range sc.ServerCounts {
		row := []string{itoa(n)}
		var rc stats.Counters
		for _, k := range []sysKind{sysInfiniFS, sysCFS} {
			sim, sys, done := deploy(4, k, n, 4, 8, 0, nil)
			ns.Preload(sys)
			res := runOn(sim, sys, ns.FreshFiles(core.OpCreate), sc.Workers, sc.OpsPerWorker, 8, &rc)
			done()
			row = append(row, kops(res.ThroughputOps()))
		}
		t.AddRow(rc, row)
	}
	return t
}

// Fig2d reproduces Fig. 2(d): create throughput in a shared directory as the
// cores per server scale (8 servers). Shape: flat — intra-server parallelism
// is wasted on a serialized directory.
func Fig2d(sc Scale) Table {
	t := Table{ID: "Fig2d", Title: "create throughput in a shared directory (Kops/s) vs cores/server",
		Header: []string{"cores", "Emulated-InfiniFS", "Emulated-CFS"}}
	ns := workload.SingleDir(sc.FilesPerDir)
	for _, cores := range sc.CoreCounts {
		row := []string{itoa(cores)}
		var rc stats.Counters
		for _, k := range []sysKind{sysInfiniFS, sysCFS} {
			sim, sys, done := deploy(5, k, 8, cores, 8, 0, nil)
			ns.Preload(sys)
			res := runOn(sim, sys, ns.FreshFiles(core.OpCreate), sc.Workers, sc.OpsPerWorker, 8, &rc)
			done()
			row = append(row, kops(res.ThroughputOps()))
		}
		t.AddRow(rc, row)
	}
	return t
}

func itoa(v int) string { return strconv.Itoa(v) }
