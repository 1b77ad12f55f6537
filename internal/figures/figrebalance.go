package figures

import (
	"fmt"
	"strings"

	"switchfs/internal/chaos"
	"switchfs/internal/cluster"
	"switchfs/internal/env"
	"switchfs/internal/lincheck"
	"switchfs/internal/stats"
)

// FigRebalance is the elastic-resharding figure (§5.5): a skewed workload
// concentrates every worker directory's fingerprint group on one server,
// and the hot-directory balancer (plus a live Reconfigure) migrates groups
// away through the gate-and-drain protocol while the load keeps running.
// Each row is one availability/p99 window; the per-plan Σ row totals the
// run and reports the groups migrated. The figure is also the
// no-stop-the-world gate: in the plans without a crash, a window with
// traffic but zero successful operations fails the run — migration must
// never make the namespace unavailable — and a plan that migrates nothing
// fails too (the scenario would not be testing rebalance at all). sc.Seed
// seeds the simulations and the workload (`fsbench -fig rebalance -seed N`).
func FigRebalance(sc Scale) Table {
	seed := sc.seed()
	t := Table{
		ID:    "rebalance",
		Title: "Availability and p99 latency during live rebalance and reconfiguration (skewed load)",
		Header: []string{
			"plan", "win", "t(ms)", "ok ops", "timeouts", "avail(%)", "p99(µs)", "moves",
		},
	}

	servers := sc.ServerCounts[0]
	const hot = 0 // the slot every worker directory starts on

	ms := env.Millisecond
	passes := func(at ...env.Duration) []chaos.Event {
		evs := make([]chaos.Event, len(at))
		for i, a := range at {
			evs[i] = chaos.RebalancePass(a)
		}
		return evs
	}
	type scenario struct {
		plan chaos.Plan
		// crashes marks plans whose fault schedule can legitimately zero a
		// window (a fail-stopped server under skewed load); the never-zero
		// availability gate applies only to the pure-migration plans.
		crashes bool
	}
	scenarios := []scenario{
		{
			plan: chaos.Plan{
				Name:    "rebalance-steady",
				Desc:    "hot-directory balancer passes under skewed load, no faults",
				Horizon: 8 * ms,
				Events:  passes(1*ms, 2*ms, 3*ms, 4*ms, 5*ms, 6*ms),
			},
		},
		{
			plan: chaos.Plan{
				Name:    "rebalance-crash",
				Desc:    "balancer passes racing a crash of the hot server",
				Horizon: 10 * ms,
				Events: append(passes(1*ms, 2*ms, 4*ms, 5*ms, 7*ms, 8*ms),
					chaos.CrashServer(2500*env.Microsecond, hot),
					chaos.RecoverServer(6*ms, hot)),
			},
			crashes: true,
		},
		{
			plan: chaos.Plan{
				Name:    "reconfig-live",
				Desc:    "grow the cluster under skewed load — staged migration, no quiesce",
				Horizon: 10 * ms,
				Events:  []chaos.Event{chaos.Reconfigure(1*ms, servers+2)},
			},
		},
	}

	var failures []string
	for _, s := range scenarios {
		plan := s.plan
		sim := env.NewSim(seed)
		c := cluster.New(sim, cluster.Options{
			Servers: servers, Clients: 2, Switches: 1,
			SwitchIndexBits: 12, Costs: env.DefaultCosts(),
		})
		res := lincheck.RunMix(sim, c, plan, lincheck.MixOptions{
			Workers: mixWorkers(sc), Seed: seed, Hot: c.ServerID(hot),
		})
		totOk, totErrs := 0, 0
		for w, win := range res.Windows() {
			totOk += win.Ok
			totErrs += win.Timeouts
			if !s.crashes && win.Ok+win.Timeouts > 0 && win.Ok == 0 {
				failures = append(failures, fmt.Sprintf(
					"%s: window %d had traffic but zero successful ops — migration stalled the namespace",
					plan.Name, w))
			}
			t.AddRow(win.Counters, append(windowCells(plan.Name, w, win), ""))
		}
		// The Σ row's counters carry the final per-server op distribution —
		// the deterministic load-spread signal the baseline gate pins.
		t.AddRow(stats.Counters{
			Ops: uint64(totOk + totErrs), Errs: uint64(totErrs),
			PerServerOps: c.PerServerOps(),
		}, []string{
			plan.Name, "Σ", "-",
			fmt.Sprintf("%d", totOk),
			fmt.Sprintf("%d", totErrs),
			fmt.Sprintf("%.1f", availability(totOk, totErrs)),
			"-",
			fmt.Sprintf("%d", c.Moves()),
		})
		if c.Moves() == 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: zero groups migrated — the scenario exercised nothing", plan.Name))
		}
		failures = append(failures, mixFailures(plan.Name, res)...)
		sim.Shutdown()
	}
	if len(failures) > 0 {
		panic(fmt.Sprintf("figures: rebalance gate reported %d failures:\n  %s",
			len(failures), strings.Join(failures, "\n  ")))
	}
	return t
}
