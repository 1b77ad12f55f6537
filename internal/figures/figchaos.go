package figures

import (
	"fmt"
	"strings"

	"switchfs/internal/chaos"
	"switchfs/internal/cluster"
	"switchfs/internal/env"
	"switchfs/internal/lincheck"
)

// FigChaos is the availability figure family: for every built-in fault plan
// (plus one seeded random plan) it drives the closed-loop mix across the
// fault schedule (lincheck.RunMix) and reports an availability + tail-latency
// timeline computed from the recorded history, one row per time window.
// lincheck.Replay, the three-valued oracle, checks every completed
// operation; any invariant violation or harness issue fails the figure
// loudly — this figure doubles as the repo's availability gate. sc.Seed
// picks the random plan and the simulations (`fsbench -fig chaos -seed N`
// sweeps scenario space).
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
		res := lincheck.RunMix(sim, c, plan, lincheck.MixOptions{Workers: mixWorkers(sc), Seed: seed})
		for w, win := range res.Windows() {
			t.AddRow(win.Counters, windowCells(plan.Name, w, win))
		}
		failures = append(failures, mixFailures(plan.Name, res)...)
		// The fault plans are where clients retransmit: gate how often.
		for _, cl := range c.Clients {
			obsMetrics.Add("client.retries", cl.Retries)
			obsMetrics.Add("client.stale_retries", cl.StaleRetry)
		}
		sim.Shutdown()
	}
	if len(failures) > 0 {
		panic(fmt.Sprintf("figures: chaos checker reported %d violations:\n  %s",
			len(failures), strings.Join(failures, "\n  ")))
	}
	return t
}

// mixWorkers sizes a mix run's client count from the configured load.
func mixWorkers(sc Scale) int { return min(max(sc.Workers/8, 4), 16) }

// windowCells renders one availability window as the chaos-family columns:
// plan, window, start, ok, timeouts, availability, p99.
func windowCells(plan string, w int, win lincheck.Window) []string {
	return []string{
		plan,
		fmt.Sprintf("%d", w),
		fmt.Sprintf("%.1f", float64(win.Start)/1e6),
		fmt.Sprintf("%d", win.Ok),
		fmt.Sprintf("%d", win.Timeouts),
		fmt.Sprintf("%.1f", availability(win.Ok, win.Timeouts)),
		us(win.P99),
	}
}

// availability is ok/(ok+timeouts) in percent, 100 without traffic.
func availability(ok, timeouts int) float64 {
	if ok+timeouts == 0 {
		return 100
	}
	return 100 * float64(ok) / float64(ok+timeouts)
}

// mixFailures lists a mix run's oracle violations and harness issues.
func mixFailures(plan string, res lincheck.RunResult) []string {
	var out []string
	for _, v := range lincheck.Replay(res.History).Violations {
		out = append(out, fmt.Sprintf("%s: %s", plan, v))
	}
	for _, iss := range res.Issues {
		out = append(out, fmt.Sprintf("%s: %s", plan, iss))
	}
	return out
}
