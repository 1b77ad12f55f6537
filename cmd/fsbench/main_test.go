package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"switchfs/internal/bench"
	"switchfs/internal/trace"
)

const baselinePath = "../../bench/baseline.json"

// fsbench calls run the way main does, stdout and stderr in one buffer.
func fsbench(args ...string) (code int, out string) {
	var buf bytes.Buffer
	return run(args, &buf, &buf), buf.String()
}

// TestGate is the repo's behavioural gate, run by `go test ./...`: the gated
// figures are generated twice in this process and must match the committed
// bench/baseline.json exactly (virtual-time cells, row counters, metrics
// deltas, table shape), serialize to byte-identical result JSON, and write
// byte-identical, well-shaped traces; each figure also panics on its own
// oracle. When a change legitimately moves the numbers, `make bench-baseline`
// refreshes the file: name the moved cells.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	var files [2][2][]byte // run × {result, trace}
	for i := range files {
		result := filepath.Join(dir, fmt.Sprintf("result%d.json", i))
		traceFile := filepath.Join(dir, fmt.Sprintf("trace%d.json", i))
		code, out := fsbench("-fig", "gated", "-scale", "tiny", "-format", "json",
			"-trace", traceFile, "-out", result, "-compare", baselinePath)
		const clean = "compared: 0 changes (figure 0, header 0, row 0, cell 0, counters 0, metric 0)\n"
		if code != 0 || !strings.Contains(out, clean) {
			t.Fatalf("run %d against %s: exit %d\n%s", i, baselinePath, code, out)
		}
		for j, path := range []string{result, traceFile} {
			var err error
			if files[i][j], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("-fig gated (%s) twice against %s: 0 changes", gatedFigs, baselinePath)
	for j, what := range []string{"result JSON", "trace"} {
		if !bytes.Equal(files[0][j], files[1][j]) {
			t.Errorf("two same-flag runs wrote different %s", what)
		} else {
			t.Logf("%s byte-identical (%d bytes)", what, len(files[0][j]))
		}
	}
	spans, err := trace.ParseJSON(bytes.NewReader(files[0][1]))
	if err == nil {
		err = trace.Validate(spans)
	}
	if err != nil {
		t.Errorf("trace: %v", err)
	} else {
		t.Logf("trace valid (%d spans)", len(spans))
	}

	if code, out := fsbench("-validate", filepath.Join(dir, "result0.json")); code != 0 || !strings.Contains(out, "valid (schema 1, scale tiny, 10 figures)") {
		t.Errorf("-validate on a result this tree wrote: exit %d: %s", code, out)
	}
	t.Run("can-fail", testGateCanFail)
}

// TestCompareRefusesOtherSeed: a run at another -seed than the baseline's is
// a usage error, exit 2, before any figure runs, and reports no change: every
// seeded cell would differ.
func TestCompareRefusesOtherSeed(t *testing.T) {
	code, out := fsbench("-fig", "chaos", "-scale", "tiny", "-seed", "7", "-compare", baselinePath)
	if code != 2 || strings.Contains(out, "CHANGED") || !strings.Contains(out, "was recorded at -seed 1, this run is -seed 7") {
		t.Fatalf("-seed 7 against %s: exit %d, want 2 and no change:\n%s", baselinePath, code, out)
	}
}

// testGateCanFail proves the gate fires on any change: the same run,
// compared against a copy of the committed baseline with one thing changed,
// must exit non-zero naming it. Cheap figures (Fig. 14: Kops/s and µs cells,
// counters, metrics; chaos: timeouts) keep the runs under a second; the
// unmutated control shows the failures come from the mutations, not from
// the subset. The runs pass no -trace, so the metric cases also show that
// metrics are recorded without it.
func testGateCanFail(t *testing.T) {
	// scaleCell multiplies Fig14's first Kops/s cell by f in the baseline
	// copy and returns the change the run must then report.
	scaleCell := func(f float64) func(*bench.Figure) string {
		return func(fig *bench.Figure) string {
			cell := &fig.Rows[0][2]
			v, err := strconv.ParseFloat(*cell, 64)
			if err != nil || fig.Header[2] != "Kops/s" {
				t.Fatalf("Fig14 row 0 col 2 is %q under %q", *cell, fig.Header[2])
			}
			old := *cell
			*cell = strconv.FormatFloat(v*f, 'f', 1, 64)
			return fmt.Sprintf("cell     Fig14[Baseline/2/Kops/s]: %s -> %s", *cell, old)
		}
	}
	cases := []struct {
		name   string
		fig    string                     // -fig id; the baseline copy keeps this figure alone
		mutate func(*bench.Figure) string // returns the line the run must print
		code   int
	}{
		{"control", "14", func(*bench.Figure) string {
			return "compared: 0 changes (figure 0, header 0, row 0, cell 0, counters 0, metric 0)"
		}, 0},
		{"Kops/s cell 1 % lower in the run", "14", scaleCell(1.01), 1},
		{"Kops/s cell 1 % higher in the run", "14", scaleCell(0.99), 1},
		{"chaos timeouts cell higher in the run", "chaos", func(f *bench.Figure) string {
			// Every timeouts cell reads 0 at tiny scale, so the baseline copy
			// stores one less and the run's 0 is the rise.
			row := f.Rows[0]
			if f.Header[4] != "timeouts" || row[4] != "0" {
				t.Fatalf("chaos row 0 col 4 is %q under %q", row[4], f.Header[4])
			}
			row[4] = "-1"
			return fmt.Sprintf("cell     chaos[%s/%s/timeouts]: -1 -> 0", row[0], row[1])
		}, 1},
		{"renamed header", "14", func(f *bench.Figure) string {
			f.Header[2] = "Mops/s"
			return "header   Fig14[col 2]: Mops/s -> Kops/s"
		}, 1},
		{"row counter changed", "14", func(f *bench.Figure) string {
			f.Counters[0].Ops++
			return "counters Fig14[Baseline/2]: "
		}, 1},
		{"metric value changed", "14", func(f *bench.Figure) string {
			f.Metrics["server.0.ops"]++
			return "metric   Fig14[server.0.ops]: "
		}, 1},
		{"new metric key", "14", func(f *bench.Figure) string {
			delete(f.Metrics, "server.0.ops")
			return "metric   Fig14[server.0.ops]: (absent) -> "
		}, 1},
		{"row dropped", "14", func(f *bench.Figure) string {
			f.Rows, f.Counters = f.Rows[:len(f.Rows)-1], f.Counters[:len(f.Counters)-1]
			return "row      Fig14["
		}, 1},
		{"wrong scale", "14", func(*bench.Figure) string {
			return "was recorded at -scale quick, this run is -scale tiny"
		}, 2},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		r, err := bench.Load(baselinePath)
		if err != nil {
			t.Fatal(err)
		}
		id := tc.fig
		if id == "14" {
			id = "Fig14"
		}
		for _, f := range r.Figures {
			if f.ID == id {
				r.Figures = []bench.Figure{f}
			}
		}
		want := tc.mutate(&r.Figures[0])
		if tc.code == 2 {
			r.Scale = "quick"
		}
		mutated := filepath.Join(dir, "baseline.json")
		if err := bench.Write(mutated, r); err != nil {
			t.Fatal(err)
		}
		code, out := fsbench("-fig", tc.fig, "-scale", "tiny", "-compare", mutated)
		if i := strings.Index(out, want); code != tc.code || i < 0 {
			t.Errorf("%s: exit %d, want %d and a line containing %q; got:\n%s", tc.name, code, tc.code, want, out)
		} else {
			t.Logf("%s: exit %d: %s", tc.name, code, strings.SplitN(out[i:], "\n", 2)[0])
		}
	}
}
