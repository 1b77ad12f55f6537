package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"switchfs/internal/stats"
)

func sample() *Result {
	return &Result{
		Schema: SchemaVersion,
		Tool:   "fsbench",
		Scale:  "tiny",
		Figures: []Figure{
			{
				ID:     "Fig12a",
				Title:  "single large directory: throughput (Kops/s)",
				Header: []string{"op", "servers", "SwitchFS"},
				Rows: [][]string{
					{"create", "4", "2648.8"},
					{"create", "8", "3283.9"},
				},
				Counters: []stats.Counters{
					{Ops: 960, PacketsDelivered: 12000},
					{Ops: 960, PacketsDelivered: 14000},
				},
			},
			{
				ID:     "Fig13",
				Title:  "operation latency (µs), single client, 8 servers",
				Header: []string{"op", "SwitchFS"},
				Rows:   [][]string{{"stat", "5.1"}},
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := sample()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Scale != "tiny" || len(got.Figures) != 2 {
		t.Fatalf("round trip mangled header: %+v", got)
	}
	if got.Figures[0].Rows[1][2] != "3283.9" {
		t.Fatalf("round trip mangled cells: %+v", got.Figures[0].Rows)
	}
	if got.Figures[0].Counters[1].PacketsDelivered != 14000 {
		t.Fatalf("round trip mangled counters: %+v", got.Figures[0].Counters)
	}
}

// TestLoadParentFormat: a file as PR 22 wrote it, the removed host-clock
// fields present, still loads under SchemaVersion 1 with its cells intact.
func TestLoadParentFormat(t *testing.T) {
	r, err := Load(filepath.Join("testdata", "parent_format.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if f := r.Figures[0]; f.Rows[0][1] != "5.1" || f.Counters[0].Ops != 7 || f.Metrics["server.0.ops"] != 7 {
		t.Fatalf("parent-format file mangled: %+v", r)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Result)
		want   string
	}{
		{"wrong schema", func(r *Result) { r.Schema = 99 }, "schema"},
		{"no figures", func(r *Result) { r.Figures = nil }, "no figures"},
		{"empty id", func(r *Result) { r.Figures[0].ID = "" }, "no id"},
		{"duplicate id", func(r *Result) { r.Figures[1].ID = "Fig12a" }, "duplicate"},
		{"ragged row", func(r *Result) { r.Figures[0].Rows[0] = []string{"create"} }, "cells"},
		{"counter misalignment", func(r *Result) {
			r.Figures[0].Counters = r.Figures[0].Counters[:1]
		}, "counter"},
	}
	for _, tc := range cases {
		r := sample()
		tc.break_(r)
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestDirectionOf(t *testing.T) {
	if DirectionOf("stat throughput (Mops/s)") != HigherBetter {
		t.Error("Mops/s should be higher-better")
	}
	if DirectionOf("operation latency (µs)") != LowerBetter {
		t.Error("µs should be lower-better")
	}
	if DirectionOf("crash recovery time (virtual ms)") != LowerBetter {
		t.Error("virtual ms should be lower-better")
	}
	if DirectionOf("mystery metric") != Neutral {
		t.Error("unknown units should be neutral")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old, new_ := sample(), sample()
	// Throughput drop beyond threshold: regression.
	new_.Figures[0].Rows[0][2] = "2000.0" // 2648.8 -> 2000 (-24%)
	// Throughput gain: a delta, not a regression.
	new_.Figures[0].Rows[1][2] = "4000.0"
	// Latency rise beyond threshold: regression.
	new_.Figures[1].Rows[0][1] = "9.9"
	cmp := Compare(old, new_, CompareOpts{ThresholdPct: 10})
	regs := cmp.Regressions()
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %d: %+v", len(regs), regs)
	}
	if regs[0].Figure != "Fig12a" || regs[0].Pct > -10 {
		t.Errorf("bad throughput regression: %+v", regs[0])
	}
	if regs[1].Figure != "Fig13" || regs[1].Pct < 10 {
		t.Errorf("bad latency regression: %+v", regs[1])
	}
	if len(cmp.Deltas) != 3 {
		t.Errorf("want 3 deltas, got %d", len(cmp.Deltas))
	}
	if regs[0].Label != "create/4/SwitchFS" {
		t.Errorf("label = %q", regs[0].Label)
	}
}

func TestCompareCounterDrift(t *testing.T) {
	old, new_ := sample(), sample()
	new_.Figures[0].Counters[0].Ops = 959
	cmp := Compare(old, new_, CompareOpts{CheckCounters: true})
	if len(cmp.Drift) != 1 || cmp.Drift[0].Figure != "Fig12a" || cmp.Drift[0].Row != 0 {
		t.Fatalf("drift = %+v", cmp.Drift)
	}
	// Without the flag, drift goes unreported.
	if d := Compare(old, new_, CompareOpts{}); len(d.Drift) != 0 {
		t.Fatalf("unexpected drift report: %+v", d.Drift)
	}
}

func TestCompareMissingFigure(t *testing.T) {
	old, new_ := sample(), sample()
	new_.Figures = new_.Figures[:1]
	cmp := Compare(old, new_, CompareOpts{})
	if len(cmp.MissingFigures) != 1 || cmp.MissingFigures[0] != "Fig13" {
		t.Fatalf("missing = %v", cmp.MissingFigures)
	}
	if !cmp.ShapeChanges() {
		t.Fatal("missing figure should count as a shape change")
	}
}

func TestCompareAddedFigure(t *testing.T) {
	old, new_ := sample(), sample()
	old.Figures = old.Figures[:1]
	cmp := Compare(old, new_, CompareOpts{})
	if len(cmp.AddedFigures) != 1 || cmp.AddedFigures[0] != "Fig13" {
		t.Fatalf("added = %v", cmp.AddedFigures)
	}
	if !cmp.ShapeChanges() {
		t.Fatal("added figure should count as a shape change")
	}
}

// TestCompareRowShape pins the bugfix: rows present in only one file used to
// be silently skipped by the min-length loop; they must be reported as
// added/removed so a baseline refresh cannot hide a dropped sweep row.
func TestCompareRowShape(t *testing.T) {
	old, new_ := sample(), sample()
	// New run dropped Fig12a's second row.
	new_.Figures[0].Rows = new_.Figures[0].Rows[:1]
	new_.Figures[0].Counters = new_.Figures[0].Counters[:1]
	cmp := Compare(old, new_, CompareOpts{})
	if len(cmp.RowsRemoved) != 1 {
		t.Fatalf("rows removed = %+v", cmp.RowsRemoved)
	}
	rc := cmp.RowsRemoved[0]
	if rc.Figure != "Fig12a" || rc.Row != 1 || rc.Label != "create/8" {
		t.Fatalf("row change = %+v", rc)
	}
	if !cmp.ShapeChanges() {
		t.Fatal("removed row should count as a shape change")
	}

	// And the symmetric case: new run grew a row.
	cmp = Compare(new_, old, CompareOpts{})
	if len(cmp.RowsAdded) != 1 || cmp.RowsAdded[0].Row != 1 {
		t.Fatalf("rows added = %+v", cmp.RowsAdded)
	}
	if len(cmp.RowsRemoved) != 0 {
		t.Fatalf("unexpected removals: %+v", cmp.RowsRemoved)
	}

	// Identical shapes report nothing.
	if c := Compare(old, old, CompareOpts{}); c.ShapeChanges() {
		t.Fatalf("identical runs report shape changes: %+v", c)
	}
}
