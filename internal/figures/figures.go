// Package figures regenerates every table and figure of the paper's
// evaluation (§3.2 motivation and §7). Each function stands up the systems
// under comparison on a fresh deterministic simulation, preloads the
// workload's namespace, drives the closed-loop load, and returns a printable
// table. EXPERIMENTS.md records the paper-vs-measured comparison for each.
package figures

import (
	"fmt"
	"strings"

	"switchfs/internal/baseline"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// Scale sizes an experiment. Quick keeps `go test -bench` fast; Paper
// approaches the paper's population sizes (minutes per figure).
type Scale struct {
	Dirs         int
	FilesPerDir  int
	Workers      int
	OpsPerWorker int
	ServerCounts []int
	CoreCounts   []int
	BurstSizes   []int
	// ScaleClients / ScaleEntries are the scale figure's sweep: parallel
	// lists of open-loop session population and preloaded namespace size.
	// Empty (or mismatched) lists fall back to the tiny two-cell sweep.
	ScaleClients []int
	ScaleEntries []int
	// Seed selects the execution of the seed-swept figures (chaos,
	// rebalance, data, lincheck, scale): their plans, workloads and
	// simulations. 0 reads as 1.
	Seed int64
}

func (sc Scale) seed() int64 {
	if sc.Seed == 0 {
		return 1
	}
	return sc.Seed
}

// Tiny is the smallest scale every figure's shape still holds at: what the
// gate (`fsbench -fig gated -scale tiny`) and the figure tests run.
func Tiny() Scale {
	return Scale{
		Dirs:         16,
		FilesPerDir:  16,
		Workers:      32,
		OpsPerWorker: 20,
		ServerCounts: []int{4, 8},
		CoreCounts:   []int{2, 4},
		BurstSizes:   []int{10, 200},
		ScaleClients: []int{100, 1000},
		ScaleEntries: []int{10_000, 100_000},
	}
}

// Quick is the reduced scale used by the bench targets.
func Quick() Scale {
	return Scale{
		Dirs:         64,
		FilesPerDir:  64,
		Workers:      64,
		OpsPerWorker: 40,
		ServerCounts: []int{4, 8, 16},
		CoreCounts:   []int{2, 4, 6},
		BurstSizes:   []int{10, 50, 1000},
		// The 1e5-client / 1e7-entry cell is the acceptance bar for the
		// scale work: it must finish in minutes, not hours.
		ScaleClients: []int{100, 1000, 10_000, 100_000},
		ScaleEntries: []int{10_000, 100_000, 1_000_000, 10_000_000},
	}
}

// Paper approaches the paper's configuration (§7.1).
func Paper() Scale {
	return Scale{
		Dirs:         1024,
		FilesPerDir:  256,
		Workers:      256,
		OpsPerWorker: 120,
		ServerCounts: []int{4, 8, 12, 16},
		CoreCounts:   []int{2, 3, 4, 5, 6},
		BurstSizes:   []int{10, 20, 50, 100, 1000},
		ScaleClients: []int{100, 1000, 10_000, 100_000, 1_000_000},
		ScaleEntries: []int{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000},
	}
}

// Table is a printable result grid. Meta carries one deterministic counter
// set per row (operation and packet counts summed over the row's runs) for
// cross-run sanity checks; it is emitted by the JSON bench format and
// checked by bench comparisons, not printed in the text rendering.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Meta   []stats.Counters
}

// AddRow appends a row and its counters in lockstep.
func (t *Table) AddRow(c stats.Counters, cells []string) {
	t.Rows = append(t.Rows, cells)
	t.Meta = append(t.Meta, c)
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// sysKind names a system under comparison.
type sysKind int

const (
	sysSwitchFS sysKind = iota
	sysInfiniFS
	sysCFS
	sysCeph
	sysIndexFS
)

func (k sysKind) String() string {
	switch k {
	case sysSwitchFS:
		return "SwitchFS"
	case sysInfiniFS:
		return "Emulated-InfiniFS"
	case sysCFS:
		return "Emulated-CFS"
	case sysCeph:
		return "CephFS"
	default:
		return "IndexFS"
	}
}

// deploy stands up one system on a fresh simulation.
func deploy(seed int64, k sysKind, servers, cores, clients, dataNodes int,
	tweak func(*cluster.Options)) (*env.Sim, fsapi.System, func()) {

	sim := env.NewSim(seed)
	costs := env.DefaultCosts()
	switch k {
	case sysSwitchFS:
		opts := cluster.Options{
			Servers:         servers,
			CoresPerServer:  cores,
			Clients:         clients,
			DataNodes:       dataNodes,
			Costs:           costs,
			SwitchIndexBits: 14,
		}
		if tweak != nil {
			tweak(&opts)
		}
		opts.Trace = obsTrace
		c := cluster.New(sim, opts)
		// Teardown snapshots the cluster's counters into the shared metrics
		// registry (no-op when observability is off).
		return sim, c, func() {
			c.FillMetrics(obsMetrics)
			sim.Shutdown()
		}
	default:
		mode := map[sysKind]baseline.Mode{
			sysInfiniFS: baseline.InfiniFS,
			sysCFS:      baseline.CFS,
			sysCeph:     baseline.Ceph,
			sysIndexFS:  baseline.IndexFS,
		}[k]
		c := baseline.New(sim, baseline.Options{
			Mode:           mode,
			Servers:        servers,
			CoresPerServer: cores,
			Clients:        clients,
			DataNodes:      dataNodes,
			Costs:          costs,
		})
		return sim, c, sim.Shutdown
	}
}

// deploySwitchFS is deploy with full SwitchFS defaults.
func deploySwitchFS(seed int64, servers, cores, clients, dataNodes int) (*env.Sim, fsapi.System, func()) {
	return deploy(seed, sysSwitchFS, servers, cores, clients, dataNodes, nil)
}

// kops formats ops/s as Kops/s.
func kops(v float64) string { return fmt.Sprintf("%.1f", v/1e3) }

// mops formats ops/s as Mops/s.
func mops(v float64) string { return fmt.Sprintf("%.3f", v/1e6) }

// us formats nanoseconds as microseconds.
func us(v float64) string { return fmt.Sprintf("%.1f", v/1e3) }

// runOn executes a generator against a deployed system, folding the run's
// operation and packet counts into the row tally.
func runOn(sim *env.Sim, sys fsapi.System, gen workload.Gen,
	workers, ops, clients int, tally *stats.Counters) workload.Result {
	res := workload.Run(sim, sys, workload.RunCfg{
		Workers:      workers,
		OpsPerWorker: ops,
		Clients:      clients,
		Seed:         1,
		Gen:          gen,
	})
	if tally != nil {
		add := stats.Counters{
			Ops:              uint64(res.Ops),
			Errs:             uint64(res.Errs),
			PacketsDelivered: sim.Delivered,
			PacketsDropped:   sim.Dropped,
		}
		// Systems reporting per-server tallies (SwitchFS and the emulated
		// baselines both do) contribute the load-balance signal.
		if po, ok := sys.(interface{ PerServerOps() []uint64 }); ok {
			add.PerServerOps = po.PerServerOps()
		}
		tally.Add(add)
	}
	return res
}

// genFor builds the per-op generator used by the Fig. 12 matrix.
func genFor(ns workload.Namespace, op core.Op) workload.Gen {
	switch op {
	case core.OpCreate:
		return ns.FreshFiles(core.OpCreate)
	case core.OpDelete:
		return ns.CreateThenDelete()
	case core.OpMkdir:
		return ns.FreshDirs(core.OpMkdir)
	case core.OpRmdir:
		return ns.MkdirThenRmdir()
	case core.OpStat:
		return ns.UniformFiles(core.OpStat)
	case core.OpStatDir:
		return ns.StatDirs()
	default:
		return ns.UniformFiles(op)
	}
}
