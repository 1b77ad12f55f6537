package figures

import (
	"fmt"
	"strings"

	"switchfs/internal/chaos"
	"switchfs/internal/cluster"
	"switchfs/internal/env"
)

// FigChaos is the availability figure family: for every built-in fault plan
// (plus one seeded random plan) it drives a closed-loop workload across the
// fault schedule and reports an availability + tail-latency timeline, one
// row per time window. The model-based chaos.Checker replays every completed
// operation against the namespace oracle; any invariant violation fails the
// figure loudly — this figure doubles as the repo's availability gate.
// sc.Seed picks the random plan and the simulations (`fsbench -fig chaos
// -seed N` sweeps scenario space).
func FigChaos(sc Scale) Table {
	seed := sc.seed()
	t := Table{
		ID:    "chaos",
		Title: "Availability and p99 latency under fault plans (chaos harness)",
		Header: []string{
			"plan", "win", "t(ms)", "ok ops", "timeouts", "avail(%)", "p99(µs)",
		},
	}

	g := chaos.Geometry{Servers: sc.ServerCounts[0], Clients: 2, Switches: 1,
		DataNodes: 4, DataReplication: 2}
	workers := sc.Workers / 8
	if workers < 4 {
		workers = 4
	}
	if workers > 16 {
		workers = 16
	}
	plans := chaos.BuiltinPlans(g)
	plans = append(plans, chaos.RandomPlan(seed, g, 8*env.Millisecond))

	var failures []string
	for _, plan := range plans {
		sim := env.NewSim(seed)
		c := cluster.New(sim, cluster.Options{
			Servers: g.Servers, Clients: g.Clients, Switches: g.Switches,
			DataNodes: g.DataNodes, DataReplication: g.DataReplication,
			SwitchIndexBits: 12, Costs: env.DefaultCosts(),
		})
		rep := chaos.Run(sim, c, plan, chaos.Options{Workers: workers, Seed: seed})
		for w, row := range rep.Rows {
			avail := 100.0
			if row.Ok+row.Errs > 0 {
				avail = 100 * float64(row.Ok) / float64(row.Ok+row.Errs)
			}
			t.AddRow(row.Counters, []string{
				plan.Name,
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.1f", float64(row.Start)/1e6),
				fmt.Sprintf("%d", row.Ok),
				fmt.Sprintf("%d", row.Errs),
				fmt.Sprintf("%.1f", avail),
				us(rep.Rows[w].P99),
			})
		}
		for _, v := range rep.Checker.Violations() {
			failures = append(failures, fmt.Sprintf("%s: %s", plan.Name, v))
		}
		for _, iss := range rep.Issues {
			failures = append(failures, fmt.Sprintf("%s: %s", plan.Name, iss))
		}
		sim.Shutdown()
	}
	if len(failures) > 0 {
		panic(fmt.Sprintf("figures: chaos checker reported %d violations:\n  %s",
			len(failures), strings.Join(failures, "\n  ")))
	}
	return t
}
