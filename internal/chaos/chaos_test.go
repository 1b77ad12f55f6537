package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
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

// TestBuiltinPlansRunClean is the core acceptance check: every curated plan
// runs to completion with zero checker violations and zero harness issues.
func TestBuiltinPlansRunClean(t *testing.T) {
	for _, plan := range BuiltinPlans(testGeometry()) {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			sim, c := deploy(t, 42)
			rep := Run(sim, c, plan, Options{Workers: 6, Seed: 3})
			for _, v := range rep.Checker.Violations() {
				t.Errorf("violation: %s", v)
			}
			for _, iss := range rep.Issues {
				t.Errorf("issue: %s", iss)
			}
			total := 0
			for _, row := range rep.Rows {
				total += row.Ok + row.Errs
			}
			if total == 0 {
				t.Error("harness completed no operations")
			}
			t.Logf("%s: %d ops, availability %.1f%%, %s",
				plan.Name, total, rep.Availability(), rep.Checker.Summary())
		})
	}
}

// TestRunDeterministic runs the same plan on the same seeds twice and
// requires byte-identical timelines (rows and counters).
func TestRunDeterministic(t *testing.T) {
	run := func() *Report {
		sim, c := deploy(t, 7)
		plan, _ := BuiltinPlan(testGeometry(), "server-crash")
		return Run(sim, c, plan, Options{Workers: 6, Seed: 5})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("timelines differ:\n%+v\n%+v", a.Rows, b.Rows)
	}
	if !reflect.DeepEqual(a.Checker.Violations(), b.Checker.Violations()) {
		t.Fatal("violation sets differ across identical runs")
	}
	if a.Checker.Ops != b.Checker.Ops || a.Checker.Ambiguous != b.Checker.Ambiguous {
		t.Fatalf("oracle accounting differs: %s vs %s", a.Checker.Summary(), b.Checker.Summary())
	}
}

// TestRandomPlanDeterministicAndClean checks the seeded generator: the same
// seed yields the same plan, the plan validates, and running it produces no
// violations.
func TestRandomPlanDeterministicAndClean(t *testing.T) {
	g := testGeometry()
	for _, seed := range []int64{1, 2, 3, 4, 7} {
		p1 := RandomPlan(seed, g, 8*ms)
		p2 := RandomPlan(seed, g, 8*ms)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
		if err := p1.Validate(); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
	}
	sim, c := deploy(t, 11)
	rep := Run(sim, c, RandomPlan(2, g, 8*ms), Options{Workers: 4, Seed: 9})
	for _, v := range rep.Checker.Violations() {
		t.Errorf("violation: %s", v)
	}
	for _, iss := range rep.Issues {
		t.Errorf("issue: %s", iss)
	}
}

// TestCheckerCatchesLostAck proves the oracle can fail: after a clean run,
// an acknowledged write is destroyed behind the protocol's back (the
// simulated storage bug of a lost durable update) and the audit must flag
// it as a lost acknowledged write.
func TestCheckerCatchesLostAck(t *testing.T) {
	_, c := deploy(t, 13)
	k := NewChecker()
	k.RegisterDir("/victim")
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		if err := cl.Mkdir(p, "/victim", 0); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("f%d", i)
			err := cl.Create(p, "/victim/"+name, 0)
			k.Apply(core.OpCreate, "/victim", name, false, err)
		}
	})
	if len(k.Violations()) != 0 {
		t.Fatalf("pre-corruption violations: %v", k.Violations())
	}

	// Destroy f3's inode record on whichever server stores it.
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

	// The audit replays reads through the oracle: the lost write must flag.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for _, name := range k.Names("/victim") {
			_, err := cl.Stat(p, "/victim/"+name)
			k.Apply(core.OpStat, "/victim", name, false, err)
		}
	})
	found := false
	for _, v := range k.Violations() {
		if strings.Contains(v, "lost acknowledged write") {
			found = true
		}
	}
	if !found {
		t.Fatalf("checker missed the injected lost ack; violations: %v", k.Violations())
	}
}

// TestCheckerUnitTransitions exercises the oracle's three-valued semantics
// without a cluster.
func TestCheckerUnitTransitions(t *testing.T) {
	k := NewChecker()
	k.RegisterDir("/d")

	// Acked create → definitely present; stat ENOENT must flag.
	k.Apply(core.OpCreate, "/d", "a", false, nil)
	k.Apply(core.OpStat, "/d", "a", false, core.ErrNotExist)
	if n := len(k.Violations()); n != 1 {
		t.Fatalf("lost-ack stat produced %d violations, want 1", n)
	}
	if !strings.Contains(k.Violations()[0], "lost acknowledged write") {
		t.Fatalf("unexpected violation: %s", k.Violations()[0])
	}

	// Timed-out create → unknown: neither stat outcome flags.
	k2 := NewChecker()
	k2.RegisterDir("/d")
	k2.Apply(core.OpCreate, "/d", "b", true, core.ErrTimeout)
	k2.Apply(core.OpStat, "/d", "b", false, nil)
	k2.Apply(core.OpStat, "/d", "b", false, core.ErrNotExist)
	if n := len(k2.Violations()); n != 0 {
		t.Fatalf("ambiguous entry produced %d violations: %v", n, k2.Violations())
	}
	if k2.Ambiguous != 1 {
		t.Fatalf("Ambiguous=%d, want 1", k2.Ambiguous)
	}

	// statdir bounds: one definite, one unknown → size must be 1 or 2.
	k3 := NewChecker()
	k3.RegisterDir("/d")
	k3.Apply(core.OpCreate, "/d", "x", false, nil)
	k3.Apply(core.OpCreate, "/d", "y", true, core.ErrTimeout)
	k3.ApplyStatDir("/d", 1, nil)
	k3.ApplyStatDir("/d", 2, nil)
	if n := len(k3.Violations()); n != 0 {
		t.Fatalf("in-bounds statdir flagged: %v", k3.Violations())
	}
	k3.ApplyStatDir("/d", 0, nil) // below the definite floor
	k3.ApplyStatDir("/d", 3, nil) // above the possible ceiling
	if n := len(k3.Violations()); n != 2 {
		t.Fatalf("out-of-bounds statdir produced %d violations, want 2", n)
	}

	// Retried create surfacing its own effect: EEXIST over absent is
	// accepted (and pins the entry present) only when resent.
	k4 := NewChecker()
	k4.RegisterDir("/d")
	k4.Apply(core.OpCreate, "/d", "r", true, core.ErrExist)
	if n := len(k4.Violations()); n != 0 {
		t.Fatalf("resent EEXIST flagged: %v", k4.Violations())
	}
	k4.Apply(core.OpStat, "/d", "r", false, core.ErrNotExist) // now it IS lost
	if n := len(k4.Violations()); n != 1 {
		t.Fatalf("lost resent-create produced %d violations, want 1", n)
	}
	k5 := NewChecker()
	k5.RegisterDir("/d")
	k5.Apply(core.OpCreate, "/d", "s", false, core.ErrExist) // not resent: impossible
	if n := len(k5.Violations()); n != 1 {
		t.Fatalf("impossible EEXIST produced %d violations, want 1", n)
	}

	// readdir: missing definite entry and listed definite-absent entry.
	k6 := NewChecker()
	k6.RegisterDir("/d")
	k6.Apply(core.OpCreate, "/d", "p", false, nil)
	k6.Apply(core.OpDelete, "/d", "q", false, core.ErrNotExist)
	k6.ApplyReadDir("/d", []string{"p"}, nil)
	if n := len(k6.Violations()); n != 0 {
		t.Fatalf("consistent readdir flagged: %v", k6.Violations())
	}
	k6.ApplyReadDir("/d", []string{"q"}, nil)
	if n := len(k6.Violations()); n != 2 {
		t.Fatalf("inconsistent readdir produced %d violations, want 2: %v", n, k6.Violations())
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
