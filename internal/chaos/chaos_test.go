package chaos

import (
	"testing"

	"switchfs/internal/cluster"
	"switchfs/internal/env"
)

// testGeometry is the small deployment every plan runs against here.
func testGeometry() Geometry { return Geometry{Servers: 4, Clients: 2, Switches: 1} }

func deploy(t *testing.T, seed int64) (*env.Sim, *cluster.Cluster) {
	t.Helper()
	g := testGeometry()
	sim := env.NewSim(seed)
	t.Cleanup(sim.Shutdown)
	c := cluster.New(sim, cluster.Options{
		Servers: g.Servers, Clients: g.Clients, Switches: g.Switches,
		SwitchIndexBits: 8, Costs: env.DefaultCosts(),
	})
	return sim, c
}

func TestBuiltinPlansValidate(t *testing.T) {
	for _, p := range BuiltinPlans(DefaultGeometry()) {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %s: %v", p.Name, err)
		}
		if p.Timeline() == "" {
			t.Errorf("plan %s renders an empty timeline", p.Name)
		}
	}
	if _, ok := BuiltinPlan(DefaultGeometry(), "server-crash"); !ok {
		t.Error("BuiltinPlan lookup failed")
	}
}

func TestPlanValidateRejectsBroken(t *testing.T) {
	cases := []Plan{
		{Name: "no-horizon"},
		{Name: "unhealed", Horizon: 8 * ms, Events: []Event{
			Partition(1*ms, "p", NodeSel{Servers: []int{0}}, NodeSel{Servers: []int{1}}, false),
		}},
		{Name: "unrecovered", Horizon: 8 * ms, Events: []Event{CrashServer(1*ms, 0)}},
		{Name: "late", Horizon: 8 * ms, Events: []Event{CrashServer(9*ms, 0), RecoverServer(9500*env.Microsecond, 0)}},
		{Name: "unknown-heal", Horizon: 8 * ms, Events: []Event{Heal(1*ms, "nope")}},
	}
	for _, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %s validated but is broken", p.Name)
		}
	}
}

// TestInjectorHealRestoresFabric applies a partition plan and verifies the
// injector's bookkeeping installs and removes exactly the faulted edges.
func TestInjectorHealRestoresFabric(t *testing.T) {
	sim, c := deploy(t, 21)
	plan := Plan{
		Name: "p", Desc: "partition then heal", Horizon: 4 * ms,
		Events: []Event{
			Partition(1*ms, "cut", NodeSel{Servers: []int{0}}, NodeSel{Servers: []int{1}}, false),
			Heal(2*ms, "cut"),
		},
	}
	Apply(sim, c, plan)
	sim.RunFor(1500 * env.Microsecond)
	if n := sim.Net().LinkRules(); n != 2 {
		t.Fatalf("after partition: %d rules installed, want 2", n)
	}
	if r := sim.Net().Link(c.ServerID(0), c.ServerID(1)); !r.Cut {
		t.Fatal("forward edge not cut")
	}
	sim.RunFor(1 * ms)
	if n := sim.Net().LinkRules(); n != 0 {
		t.Fatalf("after heal: %d rules remain", n)
	}
}
