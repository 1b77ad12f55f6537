package chaos

import (
	"reflect"
	"strings"
	"testing"

	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// dataGeometry is the data-plane deployment the data plans run against.
func dataGeometry() Geometry {
	return Geometry{Servers: 4, Clients: 2, Switches: 1, DataNodes: 4, DataReplication: 2}
}

func deployData(t *testing.T, seed int64) (*env.Sim, *cluster.Cluster) {
	t.Helper()
	g := dataGeometry()
	sim := env.NewSim(seed)
	t.Cleanup(sim.Shutdown)
	c := cluster.New(sim, cluster.Options{
		Servers: g.Servers, Clients: g.Clients, Switches: g.Switches,
		DataNodes: g.DataNodes, DataReplication: g.DataReplication,
		SwitchIndexBits: 8, Costs: env.DefaultCosts(),
	})
	return sim, c
}

// TestDataPlansRunClean: every data-fault plan (and every metadata plan run
// against a cluster WITH a data plane) completes with zero violations — in
// particular, no acknowledged content write is lost under ≤ r−1 data-node
// failures.
func TestDataPlansRunClean(t *testing.T) {
	for _, plan := range BuiltinPlans(dataGeometry()) {
		plan := plan
		t.Run(plan.Name, func(t *testing.T) {
			sim, c := deployData(t, 42)
			rep := Run(sim, c, plan, Options{Workers: 6, Seed: 3})
			for _, v := range rep.Checker.Violations() {
				t.Errorf("violation: %s", v)
			}
			for _, iss := range rep.Issues {
				t.Errorf("issue: %s", iss)
			}
			if len(rep.Checker.Chunks()) == 0 {
				t.Error("no data chunks exercised despite a deployed data plane")
			}
		})
	}
}

// TestDataPlanDeterministic: same plan, same seeds, byte-identical rows,
// data-fault plans included.
func TestDataPlanDeterministic(t *testing.T) {
	run := func() *Report {
		sim, c := deployData(t, 7)
		plan, ok := BuiltinPlan(dataGeometry(), "data-crash")
		if !ok {
			t.Fatal("data-crash plan missing")
		}
		return Run(sim, c, plan, Options{Workers: 6, Seed: 5})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("timelines differ:\n%+v\n%+v", a.Rows, b.Rows)
	}
	if a.Checker.Ops != b.Checker.Ops || a.Checker.Ambiguous != b.Checker.Ambiguous {
		t.Fatalf("oracle accounting differs: %s vs %s", a.Checker.Summary(), b.Checker.Summary())
	}
}

// TestCheckerCatchesLostDataWrite proves the data oracle can fail: after a
// clean run, an acknowledged chunk is destroyed on every replica behind the
// protocol's back and the audit must flag the lost acknowledged content.
func TestCheckerCatchesLostDataWrite(t *testing.T) {
	sim, c := deployData(t, 13)
	k := NewChecker()
	chunk := wire.ChunkKey{File: 0xBAD, Stripe: 0}
	node := c.DataNodes[0]
	var acked uint64
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		v, err := cl.WriteChunk(p, node, chunk, 128)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		acked = v
		k.ApplyDataWrite(chunk, v, err)
	})
	// Simulated storage bug: the chunk's whole replica set (primary slot 0,
	// backup slot 1) fail-stops at once, so both volatile copies are gone
	// and the recoveries rebuild from peers that never held it.
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
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		ver, _, err := cl.ReadChunk(p, node, chunk)
		if ver == acked {
			t.Fatal("chunk survived a full replica-set wipe; test premise broken")
		}
		k.ApplyDataRead(chunk, ver, err)
	})
	found := false
	for _, v := range k.Violations() {
		if strings.Contains(v, "lost acked content write") {
			found = true
		}
	}
	if !found {
		t.Errorf("oracle missed the lost acknowledged content write; violations: %v", k.Violations())
	}
}

// TestCheckerDataUnitTransitions drives the chunk model directly.
func TestCheckerDataUnitTransitions(t *testing.T) {
	k := NewChecker()
	ch := wire.ChunkKey{File: 1, Stripe: 2}

	k.ApplyDataWrite(ch, 1, nil)
	k.ApplyDataRead(ch, 1, nil)
	if n := len(k.Violations()); n != 0 {
		t.Fatalf("clean history flagged: %v", k.Violations())
	}
	// Version regression on a read = lost acked write.
	k.ApplyDataRead(ch, 0, nil)
	if n := len(k.Violations()); n != 1 {
		t.Fatalf("regressed read not flagged (violations %v)", k.Violations())
	}
	// Version above acked = phantom (re-executed retransmission).
	k.ApplyDataRead(ch, 5, nil)
	if n := len(k.Violations()); n != 2 {
		t.Fatalf("phantom read not flagged (violations %v)", k.Violations())
	}
	// A timed-out write taints: neither lower nor higher reads flag.
	k.ApplyDataWrite(ch, 0, errTimeout())
	k.ApplyDataRead(ch, 0, nil)
	k.ApplyDataRead(ch, 9, nil)
	if n := len(k.Violations()); n != 2 {
		t.Fatalf("tainted chunk still flagged: %v", k.Violations())
	}
	// Acked writes must keep growing on an untainted chunk.
	ch2 := wire.ChunkKey{File: 2}
	k.ApplyDataWrite(ch2, 3, nil)
	k.ApplyDataWrite(ch2, 3, nil)
	if n := len(k.Violations()); n != 3 {
		t.Fatalf("non-monotonic ack not flagged: %v", k.Violations())
	}
	// TaintAllData covers existing and future chunks.
	k2 := NewChecker()
	k2.ApplyDataWrite(wire.ChunkKey{File: 7}, 4, nil)
	k2.TaintAllData()
	k2.ApplyDataRead(wire.ChunkKey{File: 7}, 0, nil)
	k2.ApplyDataRead(wire.ChunkKey{File: 8}, 11, nil)
	if n := len(k2.Violations()); n != 0 {
		t.Fatalf("wiped oracle still flagged: %v", k2.Violations())
	}
}

// TestRandomPlanDataFaultsSerialized: generated data-node crash windows
// never overlap, keeping concurrent data failures at r−1 so acked content
// must always survive.
func TestRandomPlanDataFaultsSerialized(t *testing.T) {
	g := dataGeometry()
	sawData := false
	for seed := int64(1); seed <= 64; seed++ {
		p := RandomPlan(seed, g, 8*ms)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		type win struct{ from, to env.Duration }
		var wins []win
		open := map[int]env.Duration{}
		for _, ev := range p.Sorted() {
			switch ev.Kind {
			case KindCrashDataNode:
				open[ev.Data] = ev.At
			case KindRecoverDataNode:
				wins = append(wins, win{open[ev.Data], ev.At})
				delete(open, ev.Data)
			}
		}
		if len(wins) > 0 {
			sawData = true
		}
		for i := 0; i < len(wins); i++ {
			for j := i + 1; j < len(wins); j++ {
				a, b := wins[i], wins[j]
				if a.from < b.to && b.from < a.to {
					t.Errorf("seed %d: overlapping data-crash windows %+v %+v", seed, a, b)
				}
			}
		}
	}
	if !sawData {
		t.Error("64 seeds generated no data faults at all")
	}
}

func errTimeout() error { return core.ErrTimeout }
