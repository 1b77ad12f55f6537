package chaos_test

import (
	"testing"

	"switchfs/internal/chaos"
	"switchfs/internal/cluster"
	"switchfs/internal/env"
	"switchfs/internal/lincheck"
	"switchfs/internal/trace"
)

// TestTraceShapeUnderChaosPlan runs fault plans with causal tracing wired
// through the cluster and asserts the span trees stay well-shaped: a crash
// mid-op, lost packets, and recovery replay must never produce orphan spans,
// duplicate span ids, or traces with several roots.
func TestTraceShapeUnderChaosPlan(t *testing.T) {
	for _, name := range []string{"server-crash", "flaky-links"} {
		t.Run(name, func(t *testing.T) {
			g := metaGeometry
			sim := env.NewSim(42)
			t.Cleanup(sim.Shutdown)
			rec := trace.New(trace.Config{Keep: 32})
			c := cluster.New(sim, cluster.Options{
				Servers: g.Servers, Clients: g.Clients, Switches: g.Switches,
				SwitchIndexBits: 8, Costs: env.DefaultCosts(), Trace: rec,
			})
			plan, ok := chaos.BuiltinPlan(g, name)
			if !ok {
				t.Fatalf("unknown plan %s", name)
			}
			res := lincheck.RunMix(sim, c, plan, lincheck.MixOptions{Workers: 6, Seed: 3})
			for _, v := range lincheck.Replay(res.History).Violations {
				t.Errorf("violation: %s", v)
			}

			spans := rec.Spans()
			if len(spans) == 0 {
				t.Fatal("chaos run recorded no spans")
			}
			if err := trace.Validate(spans); err != nil {
				t.Fatalf("trace validation under %s: %v", name, err)
			}
			roots := map[uint64]int{}
			for _, s := range spans {
				if s.Parent == 0 {
					roots[s.Trace]++
				}
			}
			for id, n := range roots {
				if n != 1 {
					t.Errorf("trace %d has %d roots, want 1", id, n)
				}
			}
		})
	}
}
