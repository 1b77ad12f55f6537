package figures

import (
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/server"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// Fig15a reproduces Fig. 15(a): single-client create and statdir latency
// when directory state is tracked by the programmable switch versus a
// dedicated DPDK server. Shape: the dedicated server adds an RTT's worth of
// latency to both paths.
func Fig15a(sc Scale) Table {
	t := Table{ID: "Fig15a", Title: "switch vs dedicated-server tracker: latency (µs)",
		Header: []string{"op", "PSwitch", "DPDK server"}}
	ns := workload.MultiDir(sc.Dirs, sc.FilesPerDir)
	for _, op := range []core.Op{core.OpCreate, core.OpStatDir} {
		row := []string{op.String()}
		var rc stats.Counters
		for _, tracker := range []server.TrackerMode{server.TrackerSwitch, server.TrackerServer} {
			sim, sys, done := deploy(11, sysSwitchFS, 8, 4, 1, 0, func(o *cluster.Options) {
				o.Tracker = tracker
			})
			ns.Preload(sys)
			res := runOn(sim, sys, ns, genFor(ns, op), 1, sc.OpsPerWorker*2, 1, &rc)
			done()
			row = append(row, us(res.All.Mean()))
		}
		t.AddRow(rc, row)
	}
	return t
}

// Fig15b reproduces Fig. 15(b): statdir throughput over many directories as
// metadata servers scale, switch vs dedicated server. Shape: the switch
// scales linearly with the cluster, the dedicated server hits its CPU
// ceiling (§7.3.3: ~11 Mops/s with 12 cores).
func Fig15b(sc Scale) Table {
	t := Table{ID: "Fig15b", Title: "statdir throughput (Mops/s) vs servers",
		Header: []string{"servers", "PSwitch", "DPDK server"}}
	ns := workload.MultiDir(sc.Dirs*4, 1)
	for _, n := range sc.ServerCounts {
		row := []string{itoa(n)}
		var rc stats.Counters
		for _, tracker := range []server.TrackerMode{server.TrackerSwitch, server.TrackerServer} {
			sim, sys, done := deploy(12, sysSwitchFS, n, 12, 16, 0, func(o *cluster.Options) {
				o.Tracker = tracker
			})
			ns.Preload(sys)
			res := runOn(sim, sys, ns, ns.StatDirs(), sc.Workers*4, sc.OpsPerWorker, 16, &rc)
			done()
			row = append(row, mops(res.ThroughputOps()))
		}
		t.AddRow(rc, row)
	}
	return t
}

// Fig16 reproduces Fig. 16: the latency distribution of create when
// directory states are tracked on owner servers instead of the switch, under
// medium and heavy offered load. Shape: the extra server on the update path
// queues, amplifying tail latency, especially under load.
func Fig16(sc Scale) Table {
	t := Table{ID: "Fig16", Title: "create latency under load: switch vs owner-server tracking (µs)",
		Header: []string{"load", "variant", "p25", "p50", "p75", "p90", "p99", "mean"}}
	ns := workload.MultiDir(sc.Dirs, sc.FilesPerDir)
	loads := []struct {
		name    string
		workers int
	}{
		{"medium", sc.Workers / 2},
		{"heavy", sc.Workers * 2},
	}
	for _, load := range loads {
		for _, tracker := range []server.TrackerMode{server.TrackerSwitch, server.TrackerOwner} {
			name := "SwitchFS"
			if tracker == server.TrackerOwner {
				name = "SwitchFS-Variant"
			}
			var rc stats.Counters
			sim, sys, done := deploy(13, sysSwitchFS, 8, 4, 8, 0, func(o *cluster.Options) {
				o.Tracker = tracker
			})
			ns.Preload(sys)
			res := runOn(sim, sys, ns, ns.FreshFiles(core.OpCreate), load.workers, sc.OpsPerWorker, 8, &rc)
			done()
			t.AddRow(rc, []string{
				load.name, name,
				us(res.All.Percentile(0.25)), us(res.All.Percentile(0.50)),
				us(res.All.Percentile(0.75)), us(res.All.Percentile(0.90)),
				us(res.All.Percentile(0.99)), us(res.All.Mean()),
			})
		}
	}
	return t
}
