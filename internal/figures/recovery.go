package figures

import (
	"fmt"

	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/env"
	"switchfs/internal/stats"
	"switchfs/internal/trace"
)

// recoverServerTime preloads a WAL-backed namespace, runs rounds of churn
// (each creates and deletes one file per preloaded file and runs until its
// deferred updates are applied, so the live namespace ends as it began and
// only the log grows), then protocol traffic so change-logs hold pending
// entries, crashes one server, and measures §5.4.2 recovery: WAL replay,
// change-log re-delivery, aggregation of owned directories,
// invalidation-list clone. It also returns the records the crashed server
// redid. tr records the deployment's spans (nil: untraced).
func recoverServerTime(seed int64, files, dirs, rounds int, tr *trace.Recorder) (env.Duration, uint64, stats.Counters) {
	sim := env.NewSim(seed)
	defer sim.Shutdown()
	c := cluster.New(sim, cluster.Options{Servers: 8, Clients: 1, SwitchIndexBits: 14,
		Costs: env.DefaultCosts(), Trace: tr,
		// Proactive aggregation is parked so pending updates survive until
		// the crash — the recovery has real change-logs to re-deliver.
		PushEntries: 1 << 30, PushIdle: env.Second, OwnerQuiesce: env.Second})
	// The recovered server's phase split lands in the figure's metrics.
	defer c.FillMetrics(obsMetrics)
	pl := cluster.NewPreload(c)
	pl.LogWAL = true
	perDir := files / dirs
	if perDir < 1 {
		perDir = 1
	}
	for d := 0; d < dirs; d++ {
		pl.Files(fmt.Sprintf("/w%04d", d), "f", perDir)
	}
	for r := 0; r < rounds; r++ {
		c.Run(0, func(p *env.Proc, cl *client.Client) {
			for d := 0; d < dirs; d++ {
				for i := 0; i < perDir; i++ {
					name := fmt.Sprintf("/w%04d/c%d", d, i)
					cl.Create(p, name, 0)
					cl.Delete(p, name)
				}
			}
		})
	}
	// Pending asynchronous updates at crash time (stop before the proactive
	// timers drain them).
	c.RunNoDrain(0, func(p *env.Proc, cl *client.Client) {
		for d := 0; d < dirs; d += 7 {
			cl.Create(p, fmt.Sprintf("/w%04d/pending", d), 0)
		}
	})
	c.CrashServer(1)
	fut := c.RecoverServer(1)
	sim.Run()
	v, ok := fut.Peek()
	if !ok {
		panic("figures: server recovery did not complete")
	}
	if err, isErr := v.(error); isErr {
		panic(err)
	}
	return v.(env.Duration), c.Servers[1].Stats.RecoverRedoRecords,
		stats.Counters{PacketsDelivered: sim.Delivered, PacketsDropped: sim.Dropped}
}

// recoverSwitchTime measures restoring consistency after a switch reboot:
// every server flushes its change-logs so all directories return to normal
// state, matching the reset dirty set.
func recoverSwitchTime(seed int64, files, dirs int) (env.Duration, stats.Counters) {
	sim := env.NewSim(seed)
	defer sim.Shutdown()
	c := cluster.New(sim, cluster.Options{Servers: 8, Clients: 1, SwitchIndexBits: 14,
		Costs:       env.DefaultCosts(),
		PushEntries: 1 << 30, PushIdle: env.Second, OwnerQuiesce: env.Second})
	pl := cluster.NewPreload(c)
	perDir := files / dirs
	if perDir < 1 {
		perDir = 1
	}
	for d := 0; d < dirs; d++ {
		pl.Files(fmt.Sprintf("/w%04d", d), "f", perDir)
	}
	c.RunNoDrain(0, func(p *env.Proc, cl *client.Client) {
		for d := 0; d < dirs; d++ {
			for i := 0; i < 4; i++ {
				cl.Create(p, fmt.Sprintf("/w%04d/pending%d", d, i), 0)
			}
		}
	})
	c.CrashSwitch()
	fut := c.RecoverSwitch()
	sim.Run()
	v, ok := fut.Peek()
	if !ok {
		panic("figures: switch recovery did not complete")
	}
	return v.(env.Duration), stats.Counters{PacketsDelivered: sim.Delivered, PacketsDropped: sim.Dropped}
}
