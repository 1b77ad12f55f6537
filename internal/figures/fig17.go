package figures

import (
	"fmt"

	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// Fig17 reproduces Fig. 17: create throughput under operation bursts —
// groups of successive creates in the same directory, modeling temporal load
// imbalance (§7.4). Two in-flight levels (32 and 256). Shape: the baselines
// degrade as bursts grow (the burst's directory serializes), SwitchFS stays
// flat (bursts are absorbed by the change-logs).
func Fig17(sc Scale) Table {
	t := Table{ID: "Fig17", Title: "create throughput under bursts (Kops/s)",
		Header: []string{"in-flight", "burst", "Emulated-InfiniFS", "Emulated-CFS", "SwitchFS"}}
	ns := workload.MultiDir(sc.Dirs, 1)
	for _, inflight := range []int{32, 256} {
		for _, burst := range sc.BurstSizes {
			row := []string{itoa(inflight), itoa(burst)}
			var rc stats.Counters
			for _, k := range []sysKind{sysInfiniFS, sysCFS, sysSwitchFS} {
				sim, sys, done := deploy(14, k, 8, 4, 8, 0, nil)
				ns.Preload(sys)
				res := runOn(sim, sys, ns.Bursts(burst, inflight), inflight, sc.OpsPerWorker, 8, &rc)
				done()
				row = append(row, kops(res.ThroughputOps()))
			}
			t.AddRow(rc, row)
		}
	}
	return t
}

// Fig18a reproduces Fig. 18(a): latency of statdir issued after a run of K
// creates in the directory — the aggregation stall. Shape: latency grows
// with K and converges once proactive pushes bound the per-server pending
// entries (§7.5: ~29 entries per server).
func Fig18a(sc Scale) Table {
	t := Table{ID: "Fig18a", Title: "statdir latency after K preceding creates (µs), 8 servers",
		Header: []string{"K creates", "statdir µs"}}
	for _, k := range []int{1, 10, 100, 1000} {
		lat, rc := statdirAfterCreates(15, 8, k)
		t.AddRow(rc, []string{itoa(k), us(lat)})
	}
	return t
}

// Fig18b reproduces Fig. 18(b): statdir latency after 100 creates as servers
// scale. Shape: more servers keep more pending entries below the push
// threshold, so the read aggregates more — latency grows with the cluster.
func Fig18b(sc Scale) Table {
	t := Table{ID: "Fig18b", Title: "statdir latency after 100 creates (µs) vs servers",
		Header: []string{"servers", "statdir µs"}}
	for _, n := range sc.ServerCounts {
		lat, rc := statdirAfterCreates(16, n, 100)
		t.AddRow(rc, []string{itoa(n), us(lat)})
	}
	return t
}

// statdirAfterCreates measures one statdir following k creates, averaged
// over several rounds in distinct directories.
func statdirAfterCreates(seed int64, servers, k int) (float64, stats.Counters) {
	sim, sys, done := deploySwitchFS(seed, servers, 4, 1, 0)
	defer done()
	const rounds = 5
	dirs := make([]string, rounds)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("/agg%d", i)
	}
	sys.Preload(dirs, 0)
	var total float64
	ops := 0
	runClient(sim, sys, func(p *env.Proc, fs fsapi.FS) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < k; i++ {
				fs.Create(p, fmt.Sprintf("%s/f%d", dirs[r], i))
			}
			t0 := p.Now()
			_, _ = fs.StatDir(p, dirs[r])
			total += float64(p.Now() - t0)
			ops += k + 1
		}
	})
	rc := stats.Counters{Ops: uint64(ops), PacketsDelivered: sim.Delivered, PacketsDropped: sim.Dropped}
	return total / rounds, rc
}

// runClient runs fn on client 0 and drives the simulation to completion.
func runClient(sim *env.Sim, sys fsapi.System, fn func(p *env.Proc, fs fsapi.FS)) {
	fs := sys.ClientFS(0)
	sys.SpawnClient(0, func(p *env.Proc) { fn(p, fs) })
	sim.Run()
}
