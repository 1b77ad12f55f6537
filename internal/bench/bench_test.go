package bench

import (
	"path/filepath"
	"slices"
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

// changes renders Compare's output one change a line, for failure messages
// and exact expectations.
func changes(old, new_ *Result) []string {
	var out []string
	for _, c := range Compare(old, new_) {
		out = append(out, c.String())
	}
	return out
}

func wantChanges(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("changes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCompareIdentical(t *testing.T) {
	if got := changes(sample(), sample()); len(got) != 0 {
		t.Fatalf("identical runs report changes: %v", got)
	}
}

// TestCompareCells: every moved cell is a change whichever way it moved —
// throughput down or up, latency up, a label cell, a reformatted number.
func TestCompareCells(t *testing.T) {
	old, new_ := sample(), sample()
	new_.Figures[0].Rows[0][2] = "2648.7" // throughput down 0.004 %
	new_.Figures[0].Rows[1][2] = "4000.0" // throughput up
	new_.Figures[0].Rows[1][0] = "mkdir"  // a label
	new_.Figures[1].Rows[0][1] = "5.10"   // the same number, written differently
	wantChanges(t, changes(old, new_),
		"cell     Fig12a[create/4/SwitchFS]: 2648.8 -> 2648.7",
		"cell     Fig12a[create/8/op]: create -> mkdir",
		"cell     Fig12a[create/8/SwitchFS]: 3283.9 -> 4000.0",
		"cell     Fig13[stat/SwitchFS]: 5.1 -> 5.10",
	)
}

func TestCompareCounterDrift(t *testing.T) {
	old, new_ := sample(), sample()
	new_.Figures[0].Counters[0].Ops = 959
	// A per-server tally the stored row lacks is a change too: no zero-fill.
	new_.Figures[0].Counters[1].PerServerOps = []uint64{0, 0}
	got := changes(old, new_)
	wantChanges(t, got,
		"counters Fig12a[create/4]: ops=960 errs=0 pkts=12000 dropped=0 -> ops=959 errs=0 pkts=12000 dropped=0",
		"counters Fig12a[create/8]: ops=960 errs=0 pkts=14000 dropped=0 -> ops=960 errs=0 pkts=14000 dropped=0 per_server=[0 0]",
	)
}

// TestCompareHeadersAndMetrics: a renamed column or title, a moved metric,
// and a metric key only one side carries are each a change.
func TestCompareHeadersAndMetrics(t *testing.T) {
	old, new_ := sample(), sample()
	old.Figures[0].Metrics = map[string]uint64{"server.0.ops": 7, "server.1.ops": 3}
	new_.Figures[0].Metrics = map[string]uint64{"server.0.ops": 8, "server.0.wal_records": 2}
	new_.Figures[0].Header[2] = "SwitchFS (Kops/s)"
	new_.Figures[1].Title = "operation latency (µs)"
	wantChanges(t, changes(old, new_),
		"header   Fig12a[col 2]: SwitchFS -> SwitchFS (Kops/s)",
		"metric   Fig12a[server.0.ops]: 7 -> 8",
		"metric   Fig12a[server.0.wal_records]: (absent) -> 2",
		"metric   Fig12a[server.1.ops]: 3 -> (absent)",
		"figure   Fig13[title]: operation latency (µs), single client, 8 servers -> operation latency (µs)",
	)
}

func TestCompareMissingFigure(t *testing.T) {
	old, new_ := sample(), sample()
	new_.Figures = new_.Figures[:1]
	wantChanges(t, changes(old, new_),
		"figure   Fig13[figure]: operation latency (µs), single client, 8 servers -> (absent)")
}

func TestCompareAddedFigure(t *testing.T) {
	old, new_ := sample(), sample()
	old.Figures = old.Figures[:1]
	wantChanges(t, changes(old, new_),
		"figure   Fig13[figure]: (absent) -> operation latency (µs), single client, 8 servers")
}

// TestCompareRowShape pins the bugfix: rows present in only one file used to
// be silently skipped by the min-length loop; they must be reported as
// added/removed so a baseline refresh cannot hide a dropped sweep row.
func TestCompareRowShape(t *testing.T) {
	old, new_ := sample(), sample()
	// New run dropped Fig12a's second row.
	new_.Figures[0].Rows = new_.Figures[0].Rows[:1]
	new_.Figures[0].Counters = new_.Figures[0].Counters[:1]
	wantChanges(t, changes(old, new_), "row      Fig12a[create/8]: row 1 -> (absent)")
	// And the symmetric case: new run grew a row.
	wantChanges(t, changes(new_, old), "row      Fig12a[create/8]: (absent) -> row 1")
}
