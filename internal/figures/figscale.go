package figures

import (
	"math/rand"
	"strconv"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// FigScale is the million-client scale figure: an open-loop sweep of
// client-session population × namespace size on one SwitchFS deployment,
// reporting sustained throughput, p99 latency and the simulator's
// worker-pool high-water mark. Sessions think between operations
// (workload.Run with Think set): an idle session is a queued event, not a
// parked worker, which is what lets the population reach the upper cells.
// What a session and a namespace entry cost the host is benchmark/'s to
// measure (live_heap_mib, bytes_per_op, kv.bytes_per_entry).
func FigScale(sc Scale) Table {
	t := Table{
		ID:     "scale",
		Title:  "client/namespace scale: open-loop sessions, compact namespace (Kops/s)",
		Header: []string{"clients", "entries", "Kops/s", "p99 µs", "workers"},
	}
	clients, entries := sc.ScaleClients, sc.ScaleEntries
	if len(clients) == 0 || len(clients) != len(entries) {
		clients = []int{100, 1000}
		entries = []int{10_000, 100_000}
	}
	for i := range clients {
		row, rc := scaleCell(sc.seed(), clients[i], entries[i])
		t.AddRow(rc, row)
	}
	return t
}

// scaleCell runs one (clients, entries) cell on a fresh deployment.
func scaleCell(seed int64, clients, entries int) ([]string, stats.Counters) {
	const (
		servers       = 8
		cores         = 4
		opsPerSession = 4
	)
	// Think time scales with the population so the offered load stays around
	// 0.5 Mops/s — comfortably under the 8-server capacity. The figure
	// measures how cheaply the engine holds sessions and namespace, not
	// saturation (Fig. 12 covers that); an overloaded open loop would just
	// measure queueing collapse.
	think := env.Duration(clients) * 2 * env.Microsecond
	if think < 10*env.Millisecond {
		think = 10 * env.Millisecond
	}
	filesPerDir := 1000
	dirs := entries / filesPerDir
	if dirs < 1 {
		dirs, filesPerDir = 1, entries
	}

	sim, sys, shutdown := deploySwitchFS(seed, servers, cores, clients, 0)
	defer shutdown()
	ns := workload.MultiDir(dirs, filesPerDir)
	ns.Preload(sys)

	res := workload.Run(sim, sys, workload.RunCfg{
		Workers:      clients,
		OpsPerWorker: opsPerSession,
		Clients:      clients,
		Think:        think,
		Seed:         seed,
		Gen:          scaleMix(ns),
	})
	rc := stats.Counters{
		Ops:              uint64(res.Ops),
		Errs:             uint64(res.Errs),
		PacketsDelivered: sim.Delivered,
		PacketsDropped:   sim.Dropped,
	}
	row := []string{
		strconv.Itoa(clients),
		strconv.Itoa(entries),
		kops(res.ThroughputOps()),
		us(res.All.Percentile(0.99)),
		strconv.Itoa(res.Workers),
	}
	return row, rc
}

// scaleMix is the cell workload: 70% stat, 20% create (per-session fresh
// names), 10% statdir — a metadata-read-heavy mix with enough mutation to
// exercise the invalidation path at scale.
func scaleMix(ns workload.Namespace) workload.Gen {
	stat := ns.UniformFiles(core.OpStat)
	create := ns.FreshFiles(core.OpCreate)
	statdir := ns.StatDirs()
	return func(rnd *rand.Rand, w, i int) workload.Op {
		switch r := rnd.Float64(); {
		case r < 0.7:
			return stat(rnd, w, i)
		case r < 0.9:
			return create(rnd, w, i)
		default:
			return statdir(rnd, w, i)
		}
	}
}
