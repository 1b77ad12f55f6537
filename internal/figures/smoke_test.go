package figures

import (
	"fmt"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// TestSmokeThroughput sanity-checks the harness plumbing: SwitchFS must beat
// Emulated-CFS on contended creates (the paper's headline), and every system
// must complete without errors.
func TestSmokeThroughput(t *testing.T) {
	ns := workload.SingleDir(16)
	results := map[sysKind]float64{}
	for _, k := range []sysKind{sysSwitchFS, sysInfiniFS, sysCFS} {
		var sim, sys, done = deploy(1, k, 8, 4, 4, 0, nil)
		if k == sysSwitchFS {
			sim.Shutdown()
			sim, sys, done = deploySwitchFS(1, 8, 4, 4, 0)
		}
		ns.Preload(sys)
		var rc stats.Counters
		res := runOn(sim, sys, ns.FreshFiles(core.OpCreate), 64, 30, 4, &rc)
		done()
		if res.Errs > 0 {
			t.Fatalf("%v: %d errors", k, res.Errs)
		}
		if rc.Ops == 0 || rc.PacketsDelivered == 0 {
			t.Fatalf("%v: empty row counters (%s)", k, rc)
		}
		results[k] = res.ThroughputOps()
		t.Logf("%v: %.0f ops/s, %s", k, res.ThroughputOps(), res.All.Summary())
	}
	if results[sysSwitchFS] <= results[sysCFS] {
		t.Errorf("SwitchFS (%.0f) did not beat E-CFS (%.0f) on contended creates",
			results[sysSwitchFS], results[sysCFS])
	}
}

// checkTable asserts what every figure table owes the bench schema: its id,
// one counter set per row, rectangular rows.
func checkTable(t *testing.T, tab Table, id string) {
	t.Helper()
	if tab.ID != id {
		t.Fatalf("id=%q, want %q", tab.ID, id)
	}
	if len(tab.Meta) != len(tab.Rows) {
		t.Fatalf("%s: %d counter rows for %d rows", id, len(tab.Meta), len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s: ragged row %v", id, row)
		}
	}
}

// TestFigChaosShape runs the chaos figure at the gate's scale, at the
// baseline's seed and at one more (7: its own random plan): one row per
// (plan, window), counters aligned — and, by virtue of FigChaos panicking on
// checker violations, a full invariant pass over every built-in fault plan.
func TestFigChaosShape(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		sc := Tiny()
		sc.Seed = seed
		tab := FigChaos(sc)
		checkTable(t, tab, "chaos")
		if len(tab.Rows) == 0 || len(tab.Rows)%8 != 0 {
			t.Fatalf("seed %d: %d rows, want a multiple of 8 windows", seed, len(tab.Rows))
		}
		totalOps := uint64(0)
		for _, c := range tab.Meta {
			totalOps += c.Ops
		}
		if totalOps == 0 {
			t.Fatalf("seed %d: chaos harness completed no operations", seed)
		}
	}
}

// TestFigLincheckShape runs the lincheck figure at the gate's scale from the
// baseline's seed and from one more (7): one row per mode (differential,
// concurrent, one per fault plan), each with a zero violation cell — the
// figure panics on any divergence or non-linearizable history, so completing
// at all is the correctness pass.
func TestFigLincheckShape(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		sc := Tiny()
		sc.Seed = seed
		tab := FigLincheck(sc)
		checkTable(t, tab, "lincheck")
		// two differential modes + concurrent + 7 plan rows (incl. the
		// reconfig-crash and rebalance-crash migration plans).
		if len(tab.Rows) != 10 {
			t.Fatalf("seed %d: %d rows, want 10 modes", seed, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if row[len(row)-1] != "0" {
				t.Fatalf("seed %d: mode %s reports violations: %v", seed, row[0], row)
			}
		}
		for _, c := range tab.Meta {
			if c.Ops == 0 || c.PacketsDelivered == 0 {
				t.Fatalf("seed %d: mode with zero ops/packets: %+v", seed, tab.Meta)
			}
		}
	}
}

// TestFigRebalanceShape runs the rebalance figure at the gate's scale, at the
// baseline's seed and at one more (7): one row per (plan, window) plus a Σ
// row per plan — and, because FigRebalance panics on a zero-availability
// traffic window during pure migration, on a plan that moves nothing, and on
// any checker violation, completing at all is the live-migration
// availability pass.
func TestFigRebalanceShape(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		sc := Tiny()
		sc.Seed = seed
		tab := FigRebalance(sc)
		checkTable(t, tab, "rebalance")
		// 8 windows + one Σ row per plan.
		if len(tab.Rows) == 0 || len(tab.Rows)%9 != 0 {
			t.Fatalf("seed %d: %d rows, want a multiple of 9 (8 windows + Σ)", seed, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if row[1] == "Σ" && (row[len(row)-1] == "0" || row[len(row)-1] == "") {
				t.Fatalf("seed %d: plan %s migrated no groups: %v", seed, row[0], row)
			}
		}
	}
}

// TestFigDataShape runs the data-plane figure at the gate's scale: one row
// per (nodes, replication) config plus the recovery row, and — because
// FigData panics on a lost acknowledged content write — a durability pass
// over the crash/re-replication cycle.
func TestFigDataShape(t *testing.T) {
	tab := FigData(Tiny())
	checkTable(t, tab, "data")
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows, want 5 throughput configs + 1 recovery row", len(tab.Rows))
	}
	for i := range tab.Rows {
		if tab.Meta[i].IsZero() {
			t.Errorf("row %d has empty counters", i)
		}
	}
	// Replication must cost writes something: r=1 strictly beats r=2 at the
	// same node count.
	var r1, r2 float64
	fmt.Sscanf(tab.Rows[1][3], "%f", &r1) // 4 nodes r=1
	fmt.Sscanf(tab.Rows[2][3], "%f", &r2) // 4 nodes r=2
	if r1 <= r2 {
		t.Errorf("r=1 write throughput %.1f not above r=2's %.1f — replication is free?", r1, r2)
	}
}

// TestFigScaleShape runs the scale figure over a small two-cell sweep: one
// row per (clients, entries) pair, live counters, and a worker-pool
// high-water mark far below the session population (idle sessions are queued
// events, not workers).
func TestFigScaleShape(t *testing.T) {
	sc := Scale{ScaleClients: []int{50, 500}, ScaleEntries: []int{2000, 20000}}
	tab := FigScale(sc)
	checkTable(t, tab, "scale")
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows, want one per sweep cell", len(tab.Rows))
	}
	for i := range tab.Rows {
		if tab.Meta[i].IsZero() {
			t.Errorf("row %d has empty counters", i)
		}
		if tab.Meta[i].Errs != 0 {
			t.Errorf("row %d reports %d errors", i, tab.Meta[i].Errs)
		}
	}
	var workers int
	fmt.Sscanf(tab.Rows[1][4], "%d", &workers)
	if workers <= 0 || workers > 100 {
		t.Errorf("worker pool %d for 500 sessions — idle sessions are holding workers", workers)
	}
}
