package chaos_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"switchfs/internal/chaos"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/lincheck"
	"switchfs/internal/wire"
	"switchfs/internal/workload"
)

// The plans run here through lincheck.Run, the checked-run runner: the
// closed-loop mix (lincheck.RunMix), its history replayed by the
// three-valued oracle (lincheck.Replay).

const ms = env.Millisecond

var (
	// metaGeometry is the small deployment every metadata plan runs against.
	metaGeometry = chaos.Geometry{Servers: 4, Clients: 2, Switches: 1}
	// dataGeometry adds a data plane for the data plans.
	dataGeometry = chaos.Geometry{Servers: 4, Clients: 2, Switches: 1, DataNodes: 4, DataReplication: 2}
)

func deploy(t *testing.T, seed int64, g chaos.Geometry) (*env.Sim, *cluster.Cluster) {
	t.Helper()
	sim := env.NewSim(seed)
	t.Cleanup(sim.Shutdown)
	c := cluster.New(sim, cluster.Options{
		Servers: g.Servers, Clients: g.Clients, Switches: g.Switches,
		DataNodes: g.DataNodes, DataReplication: g.DataReplication,
		SwitchIndexBits: 8, Costs: env.DefaultCosts(),
	})
	return sim, c
}

// requireClean fails the test on any oracle violation or harness issue.
func requireClean(t *testing.T, res lincheck.RunResult) lincheck.Verdict {
	t.Helper()
	v := lincheck.Replay(res.History)
	for _, s := range v.Violations {
		t.Errorf("violation: %s", s)
	}
	for _, iss := range res.Issues {
		t.Errorf("issue: %s", iss)
	}
	return v
}

// TestBuiltinPlansRunClean is the core acceptance check: every curated plan
// runs to completion with zero oracle violations and zero harness issues.
func TestBuiltinPlansRunClean(t *testing.T) {
	for _, plan := range chaos.BuiltinPlans(metaGeometry) {
		t.Run(plan.Name, func(t *testing.T) {
			sim, c := deploy(t, 42, metaGeometry)
			res := lincheck.RunMix(sim, c, plan, lincheck.MixOptions{Workers: 6, Seed: 3})
			v := requireClean(t, res)
			ok, timeouts := 0, 0
			for _, w := range res.Windows() {
				ok += w.Ok
				timeouts += w.Timeouts
			}
			if ok+timeouts == 0 {
				t.Error("harness completed no operations")
			}
			t.Logf("%s: %d ok, %d timeouts; replayed %d ops, %d ambiguous",
				plan.Name, ok, timeouts, v.Ops, v.Ambiguous)
		})
	}
}

// runTwice runs one plan twice on the same seeds and requires identical
// histories, windows and verdicts.
func runTwice(t *testing.T, g chaos.Geometry, plan chaos.Plan, seed int64, o lincheck.MixOptions) {
	t.Helper()
	run := func() (lincheck.RunResult, lincheck.Verdict) {
		sim, c := deploy(t, seed, g)
		res := lincheck.RunMix(sim, c, plan, o)
		return res, lincheck.Replay(res.History)
	}
	a, av := run()
	b, bv := run()
	if !reflect.DeepEqual(a.History, b.History) {
		t.Fatalf("histories differ:\n%s\n%s", a.History, b.History)
	}
	if !reflect.DeepEqual(a.Windows(), b.Windows()) {
		t.Fatalf("timelines differ:\n%+v\n%+v", a.Windows(), b.Windows())
	}
	if !reflect.DeepEqual(av, bv) || !reflect.DeepEqual(a.Issues, b.Issues) {
		t.Fatalf("verdicts differ: %+v %v vs %+v %v", av, a.Issues, bv, b.Issues)
	}
}

// TestRunDeterministic: same plan, same seeds, identical histories,
// timelines (rows and counters) and verdicts.
func TestRunDeterministic(t *testing.T) {
	plan, _ := chaos.BuiltinPlan(metaGeometry, "server-crash")
	runTwice(t, metaGeometry, plan, 7, lincheck.MixOptions{Workers: 6, Seed: 5})
}

// TestDataPlanDeterministic: the same with a data-fault plan.
func TestDataPlanDeterministic(t *testing.T) {
	plan, ok := chaos.BuiltinPlan(dataGeometry, "data-crash")
	if !ok {
		t.Fatal("data-crash plan missing")
	}
	runTwice(t, dataGeometry, plan, 7, lincheck.MixOptions{Workers: 6, Seed: 5})
}

// TestRandomPlanDeterministicAndClean checks the seeded generator: the same
// seed yields the same plan, the plan validates, and running it produces no
// violations.
func TestRandomPlanDeterministicAndClean(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 7} {
		p1 := chaos.RandomPlan(seed, metaGeometry, 8*ms)
		p2 := chaos.RandomPlan(seed, metaGeometry, 8*ms)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
		if err := p1.Validate(); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
	}
	sim, c := deploy(t, 11, metaGeometry)
	requireClean(t, lincheck.RunMix(sim, c, chaos.RandomPlan(2, metaGeometry, 8*ms),
		lincheck.MixOptions{Workers: 4, Seed: 9}))
}

// TestDataPlansRunClean: every data-fault plan (and every metadata plan run
// against a cluster WITH a data plane) completes with zero violations — in
// particular, no acknowledged content write is lost under ≤ r−1 data-node
// failures.
func TestDataPlansRunClean(t *testing.T) {
	for _, plan := range chaos.BuiltinPlans(dataGeometry) {
		t.Run(plan.Name, func(t *testing.T) {
			sim, c := deploy(t, 42, dataGeometry)
			res := lincheck.RunMix(sim, c, plan, lincheck.MixOptions{Workers: 6, Seed: 3})
			requireClean(t, res)
			chunks := 0
			for _, e := range res.History {
				if e.Op.Kind == core.OpWrite {
					chunks++
				}
			}
			if chunks == 0 {
				t.Error("no data chunks exercised despite a deployed data plane")
			}
		})
	}
}

// script is a one-client source issuing ops in order; its audit hook runs
// between the drained cluster and the audit reads, where a test destroys
// acknowledged state behind the protocol's back.
func script(ops []workload.Op, audit func() []workload.Op) lincheck.Source {
	return lincheck.Source{
		Clients: 1,
		Next: func(p *env.Proc, w int) (workload.Op, bool) {
			if len(ops) == 0 {
				return workload.Op{}, false
			}
			op := ops[0]
			ops = ops[1:]
			return op, true
		},
		Audit: func(lincheck.History) []workload.Op { return audit() },
	}
}

// requireViolation fails unless Replay flags the run's history with a
// violation containing want, and only after the audit began.
func requireViolation(t *testing.T, res lincheck.RunResult, want string) {
	t.Helper()
	if v := lincheck.Replay(res.History[:res.Loaded]); len(v.Violations) != 0 {
		t.Fatalf("pre-corruption violations: %v", v.Violations)
	}
	v := lincheck.Replay(res.History)
	for _, s := range v.Violations {
		if strings.Contains(s, want) {
			return
		}
	}
	t.Fatalf("oracle missed the injected %q; violations: %v", want, v.Violations)
}

// TestCheckerCatchesLostAck proves the oracle can fail: after a clean run,
// an acknowledged write is destroyed behind the protocol's back (the
// simulated storage bug of a lost durable update) and the audit must flag
// it as a lost acknowledged write.
func TestCheckerCatchesLostAck(t *testing.T) {
	sim, c := deploy(t, 13, metaGeometry)
	ops := []workload.Op{{Kind: core.OpMkdir, Path: "/victim"}}
	var reads []workload.Op
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/victim/f%d", i)
		ops = append(ops, workload.Op{Kind: core.OpCreate, Path: path})
		reads = append(reads, workload.Op{Kind: core.OpStat, Path: path})
	}
	res := lincheck.Run(sim, c, nil, script(ops, func() []workload.Op {
		// Destroy f3's records on whichever server stores them.
		removed := 0
		for _, srv := range c.Servers {
			var keys [][]byte
			srv.KV().Scan(nil, func(kb, v []byte) bool {
				if key, err := core.DecodeKey(kb); err == nil && key.Name == "f3" {
					keys = append(keys, append([]byte(nil), kb...))
				}
				return true
			})
			for _, kb := range keys {
				srv.KV().Delete(kb)
				removed++
			}
		}
		if removed == 0 {
			t.Fatal("found no durable record to destroy")
		}
		return reads
	}))
	requireViolation(t, res, "lost acknowledged write")
}

// TestCheckerCatchesLostDataWrite proves the data oracle can fail: after a
// clean run, an acknowledged chunk is destroyed on every replica behind the
// protocol's back and the audit must flag the lost acknowledged content.
func TestCheckerCatchesLostDataWrite(t *testing.T) {
	sim, c := deploy(t, 13, dataGeometry)
	chunk := wire.ChunkKey{File: 0xBAC}
	if slot := datanode.PrimarySlot(chunk, len(c.DataNodes)); slot != 0 {
		t.Fatalf("chunk's primary is slot %d, want 0", slot)
	}
	write := workload.Op{Kind: core.OpWrite, Chunk: chunk}
	res := lincheck.Run(sim, c, nil, script([]workload.Op{write}, func() []workload.Op {
		// Simulated storage bug: the chunk's whole replica set (primary
		// slot 0, backup slot 1) fail-stops at once — no plan, so no wipe
		// marker — and both volatile copies are gone; the recoveries rebuild
		// from peers that never held it.
		c.CrashDataNode(0)
		c.CrashDataNode(1)
		fut0 := c.RecoverDataNode(0)
		sim.Run()
		fut1 := c.RecoverDataNode(1)
		sim.Run()
		if _, ok := fut0.Peek(); !ok {
			t.Fatal("recovery 0 incomplete")
		}
		if _, ok := fut1.Peek(); !ok {
			t.Fatal("recovery 1 incomplete")
		}
		return []workload.Op{{Kind: core.OpRead, Chunk: chunk}}
	}))
	if h := res.History; len(h) != 2 || h[1].Out.Version == h[0].Out.Version {
		t.Fatalf("chunk survived a full replica-set wipe; test premise broken:\n%s", h)
	}
	requireViolation(t, res, "lost acked content write")
}
