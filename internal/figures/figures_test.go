package figures

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestFig2aShape(t *testing.T) {
	tab := Fig2a(Tiny())
	t.Log("\n" + tab.String())
	// E-CFS (col 2) must scale with servers; E-InfiniFS (col 1) must not.
	if cfsGrowth := cell(t, tab, 1, 2) / cell(t, tab, 0, 2); cfsGrowth < 1.4 {
		t.Errorf("E-CFS stat did not scale: growth %.2f", cfsGrowth)
	}
	if infGrowth := cell(t, tab, 1, 1) / cell(t, tab, 0, 1); infGrowth > 1.3 {
		t.Errorf("E-InfiniFS stat unexpectedly scaled: growth %.2f", infGrowth)
	}
	// E-CFS must beat E-InfiniFS at the top scale.
	if cell(t, tab, 1, 2) <= cell(t, tab, 1, 1) {
		t.Error("E-CFS did not outperform E-InfiniFS on balanced stat")
	}
}

func TestFig2bShape(t *testing.T) {
	tab := Fig2b(Tiny())
	t.Log("\n" + tab.String())
	// create (row 1): E-CFS pays cross-server coordination over E-InfiniFS.
	if cell(t, tab, 1, 2) <= cell(t, tab, 1, 1) {
		t.Error("E-CFS create latency not higher than E-InfiniFS")
	}
}

func TestFig2cdShape(t *testing.T) {
	c := Fig2c(Tiny())
	t.Log("\n" + c.String())
	// Neither baseline scales with servers under a shared directory.
	for col := 1; col <= 2; col++ {
		if g := cell(t, c, 1, col) / cell(t, c, 0, col); g > 1.5 {
			t.Errorf("%s col %d scaled %.2f× with servers under contention", c.ID, col, g)
		}
	}
	d := Fig2d(Tiny())
	t.Log("\n" + d.String())
	for col := 1; col <= 2; col++ {
		if g := cell(t, d, 1, col) / cell(t, d, 0, col); g > 1.5 {
			t.Errorf("%s col %d scaled %.2f× with cores under contention", d.ID, col, g)
		}
	}
}

func TestFig12aShape(t *testing.T) {
	tab := Fig12a(Tiny())
	t.Log("\n" + tab.String())
	// Row layout: op × servers; cols: Ceph, E-InfiniFS, E-CFS, SwitchFS.
	// create at the largest server count: SwitchFS wins, CephFS loses.
	row := 1 // create, servers=8
	if cell(t, tab, row, 5) <= cell(t, tab, row, 4) {
		t.Error("SwitchFS create did not beat E-CFS in the single large directory")
	}
	if cell(t, tab, row, 2) >= cell(t, tab, row, 5)/2 {
		t.Error("CephFS unexpectedly competitive")
	}
	// SwitchFS create scales with servers (sub-linearly at tiny scale: the
	// sustained window charges the owner's apply pipeline — see
	// EXPERIMENTS.md).
	if g := cell(t, tab, 1, 5) / cell(t, tab, 0, 5); g < 1.15 {
		t.Errorf("SwitchFS create growth %.2f with servers", g)
	}
}

func TestFig13Shape(t *testing.T) {
	tab := Fig13(Tiny())
	t.Log("\n" + tab.String())
	find := func(op string) int {
		for i, r := range tab.Rows {
			if r[0] == op {
				return i
			}
		}
		t.Fatalf("row %q missing", op)
		return -1
	}
	// SwitchFS create latency below both emulated baselines.
	cr := find("create")
	if sf := cell(t, tab, cr, 5); sf >= cell(t, tab, cr, 3) || sf >= cell(t, tab, cr, 4) {
		t.Error("SwitchFS create latency not the lowest among emulated systems")
	}
	// SwitchFS statdir latency above E-InfiniFS (the paper's 28.6% penalty).
	sd := find("statdir")
	if cell(t, tab, sd, 5) <= cell(t, tab, sd, 3) {
		t.Error("SwitchFS statdir latency unexpectedly below E-InfiniFS")
	}
	// CephFS is slowest everywhere.
	for _, r := range []int{cr, sd} {
		if cell(t, tab, r, 1) < cell(t, tab, r, 5) {
			t.Error("CephFS latency below SwitchFS")
		}
	}
}

func TestFig14Shape(t *testing.T) {
	tab := Fig14(Tiny())
	t.Log("\n" + tab.String())
	// Rows: Baseline×cores, +Async×cores, +Compaction×cores.
	n := len(Tiny().CoreCounts)
	baseThr := cell(t, tab, n-1, 2)
	asyncThr := cell(t, tab, 2*n-1, 2)
	compThr := cell(t, tab, 3*n-1, 2)
	baseLat := cell(t, tab, n-1, 3)
	asyncLat := cell(t, tab, 2*n-1, 3)
	if asyncLat >= baseLat {
		t.Errorf("+Async latency %.1f not below Baseline %.1f", asyncLat, baseLat)
	}
	if compThr <= asyncThr || compThr <= baseThr {
		t.Errorf("+Compaction throughput %.1f not the highest (base %.1f, async %.1f)",
			compThr, baseThr, asyncThr)
	}
	// +Compaction scales with cores; Baseline does not.
	if g := cell(t, tab, 3*n-1, 2) / cell(t, tab, 2*n, 2); g < 1.2 {
		t.Errorf("+Compaction did not scale with cores: %.2f", g)
	}
}

func TestOverflowShape(t *testing.T) {
	tab := Overflow(Tiny())
	t.Log("\n" + tab.String())
	if cell(t, tab, 1, 1) >= cell(t, tab, 0, 1) {
		t.Error("forced overflow did not reduce throughput")
	}
	if cell(t, tab, 1, 2) <= cell(t, tab, 0, 2) {
		t.Error("forced overflow did not raise latency")
	}
}

func TestFig15Shape(t *testing.T) {
	a := Fig15a(Tiny())
	t.Log("\n" + a.String())
	for r := range a.Rows {
		if cell(t, a, r, 2) <= cell(t, a, r, 1) {
			t.Errorf("%s: dedicated server not slower for %s", a.ID, a.Rows[r][0])
		}
	}
	b := Fig15b(Tiny())
	t.Log("\n" + b.String())
	last := len(b.Rows) - 1
	if cell(t, b, last, 1) <= cell(t, b, last, 2) {
		t.Error("switch tracking did not outscale the dedicated server")
	}
}

func TestFig16Shape(t *testing.T) {
	tab := Fig16(Tiny())
	t.Log("\n" + tab.String())
	// Heavy load: the owner-tracking variant's p99 exceeds SwitchFS's.
	if cell(t, tab, 3, 6) <= cell(t, tab, 2, 6) {
		t.Error("owner tracking p99 not above SwitchFS under heavy load")
	}
}

func TestFig17Shape(t *testing.T) {
	tab := Fig17(Tiny())
	t.Log("\n" + tab.String())
	// With 32 in-flight: baselines drop from burst 10 to the large burst;
	// SwitchFS stays within 40%.
	small, large := 0, 1
	for col, name := range []string{"", "", "E-InfiniFS", "E-CFS", "SwitchFS"} {
		if col < 2 {
			continue
		}
		drop := cell(t, tab, large, col) / cell(t, tab, small, col)
		if col < 4 && drop > 0.75 {
			t.Errorf("%s kept %.0f%% of throughput under bursts; expected collapse", name, drop*100)
		}
		if col == 4 && drop < 0.6 {
			t.Errorf("SwitchFS kept only %.0f%% of throughput under bursts", drop*100)
		}
	}
}

func TestFig18Shape(t *testing.T) {
	a := Fig18a(Tiny())
	t.Log("\n" + a.String())
	// statdir latency grows with preceding creates, then converges: the
	// K=1000 value must be below K=100 × 20 (bounded by proactive pushes).
	if cell(t, a, 1, 1) <= cell(t, a, 0, 1) {
		t.Error("statdir latency did not grow with pending creates")
	}
	if cell(t, a, 3, 1) > cell(t, a, 2, 1)*20 {
		t.Error("statdir latency did not converge (proactive pushes broken?)")
	}
	b := Fig18b(Tiny())
	t.Log("\n" + b.String())
}

func TestFig19Shape(t *testing.T) {
	tab := Fig19(Tiny())
	t.Log("\n" + tab.String())
	for r := range tab.Rows {
		sf := cell(t, tab, r, 4)
		ceph := cell(t, tab, r, 1)
		if sf <= ceph {
			t.Errorf("row %d: SwitchFS %.1f not above CephFS %.1f", r, sf, ceph)
		}
	}
	// Synthetic skewed: SwitchFS above E-InfiniFS.
	if cell(t, tab, 0, 4) <= cell(t, tab, 0, 2) {
		t.Error("SwitchFS not above E-InfiniFS on the skewed synthetic workload")
	}
	// CNN and Thumbnail with data (rows 1 and 2): every system shares one
	// data plane, which bounds these rows, so E-InfiniFS and E-CFS are each
	// within 5 % of SwitchFS.
	for _, r := range []int{1, 2} {
		sf := cell(t, tab, r, 4)
		for col := 2; col <= 3; col++ {
			if v := cell(t, tab, r, col); math.Abs(v-sf) > 0.05*sf {
				t.Errorf("row %d: %s %.1f not within 5%% of SwitchFS %.1f (a data plane of its own?)",
					r, tab.Header[col], v, sf)
			}
		}
	}
}

func TestRecoveryTable(t *testing.T) {
	tab := Recovery(Tiny())
	t.Log("\n" + tab.String())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Recovery time grows with state volume.
	if cell(t, tab, 1, 2) <= cell(t, tab, 0, 2) {
		t.Error("server recovery time did not grow with files")
	}
	for _, r := range tab.Rows {
		if !strings.Contains(r[0], "crash") {
			t.Errorf("unexpected scenario %q", r[0])
		}
	}
}

// TestRecoveryHistoryBounded: a server's recovery time follows its state,
// not its history. Every row recovers the same live namespace, so with the
// log cut behind checkpoints the row after 16 churn rounds takes at most
// twice the row after none (without them it took 28 times as long).
func TestRecoveryHistoryBounded(t *testing.T) {
	tab := RecoveryHistory(Tiny())
	t.Log("\n" + tab.String())
	if len(tab.Rows) != 4 || tab.Rows[3][0] != "16" {
		t.Fatalf("rows %v, want 0, 1, 4 and 16 rounds", tab.Rows)
	}
	if none, most := cell(t, tab, 0, 2), cell(t, tab, 3, 2); most > 2*none {
		t.Errorf("recovery after 16 churn rounds takes %.3f ms, more than twice the %.3f ms after none", most, none)
	}
}

func TestFig12bShape(t *testing.T) {
	tab := Fig12b(Tiny())
	t.Log("\n" + tab.String())
	// Columns: op, servers, Ceph, IndexFS, E-InfiniFS, E-CFS, SwitchFS.
	// create at 8 servers (row 1): SwitchFS and E-InfiniFS beat E-CFS
	// (grouping/async avoid the cross-server transaction).
	if cell(t, tab, 1, 6) <= cell(t, tab, 1, 5) {
		t.Error("SwitchFS create not above E-CFS over multiple directories")
	}
	if cell(t, tab, 1, 6) <= cell(t, tab, 1, 4) {
		t.Error("SwitchFS create not above E-InfiniFS over multiple directories")
	}
	// The paper's E-InfiniFS > E-CFS create gap needs enough directories
	// that the run is per-op-cost-bound rather than per-directory-bound; at
	// tiny scale both baselines sit on the same directory-serialization
	// ceiling, so only a no-worse check is meaningful here.
	if cell(t, tab, 1, 4) < cell(t, tab, 1, 5)*0.9 {
		t.Error("E-InfiniFS create clearly below E-CFS over multiple directories")
	}
	// mkdir (rows 4-5): SwitchFS beats every baseline (async vs 2PC).
	mk := 2*len(Tiny().ServerCounts) + 1
	for col := 2; col <= 5; col++ {
		if tab.Rows[mk][col] == "-" {
			continue
		}
		if cell(t, tab, mk, 6) <= cell(t, tab, mk, col) {
			t.Errorf("SwitchFS mkdir not above column %d", col)
		}
	}
	// CephFS trails everywhere.
	if cell(t, tab, 1, 2) >= cell(t, tab, 1, 6)/10 {
		t.Error("CephFS unexpectedly competitive")
	}
}
