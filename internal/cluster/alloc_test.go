package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/env"
)

// TestRequestPathAllocationBudget keeps the request path's allocation count
// from rotting between benchmark runs: on a Sim (8 servers, 256 preloaded
// directories, warm client cache and lock tables) it counts heap allocations
// across 2 000 stats and 2 000 creates, drain included. Under Sim the count
// is deterministic; the budgets are 10 % above what the last change to the
// request path measured (stat 2.00, create 24.73 — 3.00 and 26.73 at its
// parent, when every call allocated its future). A stat allocates its two
// messages, each a packet carved with its body; the client waits on its
// process's reply slot. A create adds the WAL record and its copy, the store's and lock table's inserts, the commit
// notice and contexts — and here, one file per directory at a time, a whole
// idle push and an aggregation across eight servers of its own, which is why
// it costs twice a hot-directory create.
func TestRequestPathAllocationBudget(t *testing.T) {
	const (
		dirs, filesPerDir = 256, 8
		ops               = 2000
		statBudget        = 2.2
		createBudget      = 27.2
	)
	sim := env.NewSim(1)
	defer sim.Shutdown()
	c := New(sim, Options{Servers: 8, Clients: 1})
	pl := NewPreload(c)
	var stats, creates []string
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/d%03d", d)
		pl.Files(dir, "f", filesPerDir)
		for f := 0; f < filesPerDir; f++ {
			stats = append(stats, fmt.Sprintf("%s/f%d", dir, f))
			creates = append(creates, fmt.Sprintf("%s/new%d", dir, f))
		}
	}
	stats, creates = stats[:ops], creates[:ops]

	measure := func(what string, paths []string, budget float64, op func(*env.Proc, *client.Client, string) error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c.Run(0, func(p *env.Proc, cl *client.Client) {
			for _, path := range paths {
				if err := op(p, cl, path); err != nil {
					t.Errorf("%s %s: %v", what, path, err)
					return
				}
			}
		})
		runtime.ReadMemStats(&after)
		perOp := float64(after.Mallocs-before.Mallocs) / float64(len(paths))
		t.Logf("%s: %.2f allocs/op (budget %.1f)", what, perOp, budget)
		if perOp > budget {
			t.Errorf("%s: %.2f allocs/op, over the budget of %.1f", what, perOp, budget)
		}
	}
	stat := func(p *env.Proc, cl *client.Client, path string) error { _, err := cl.Stat(p, path); return err }
	create := func(p *env.Proc, cl *client.Client, path string) error { return cl.Create(p, path, 0) }

	measure("warm-up stat", stats, 1e9, stat) // fills the client cache and the servers' lock tables
	measure("stat", stats, statBudget, stat)
	measure("create", creates, createBudget, create)
}
