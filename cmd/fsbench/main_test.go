package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
		const clean = "compared: 0 cells changed, 0 regressions, 0 figures missing/added, " +
			"0 rows removed/added, 0 counter drifts, 0 metric drifts\n"
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
	t.Logf("-fig gated (%s) twice against %s: 0 cells changed, 0 drifts, 0 shape changes", gatedFigs, baselinePath)
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

	if code, out := fsbench("-validate", filepath.Join(dir, "result0.json")); code != 0 || !strings.Contains(out, "valid (schema 1, scale tiny, 8 figures)") {
		t.Errorf("-validate on a result this tree wrote: exit %d: %s", code, out)
	}
	t.Run("can-fail", testGateCanFail)
}

// testGateCanFail proves the gate fires: the same run, compared against a
// copy of the committed baseline with one thing wrong, must exit non-zero
// naming it. One cheap figure (Fig. 14: directed cells, counters, metrics)
// keeps the six runs under half a second; the unmutated control shows
// the failures come from the mutations, not from the subset.
func testGateCanFail(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(r *bench.Result) // r holds Fig14 alone
		code   int
		want   string
	}{
		{"control", func(*bench.Result) {}, 0, "compared: 0 cells changed, 0 regressions"},
		{"Kops/s cell past -threshold, worse direction",
			func(r *bench.Result) { r.Figures[0].Rows[0][2] = "99999.0" }, 1, "REGRESS  Fig14["},
		{"row counter changed", func(r *bench.Result) { r.Figures[0].Counters[0].Ops++ }, 1, "DRIFT    Fig14["},
		{"metrics key changed",
			func(r *bench.Result) { r.Figures[0].Metrics["server.0.ops"]++ }, 1, "MDRIFT   Fig14{server.0.ops}"},
		{"row dropped", func(r *bench.Result) {
			f := &r.Figures[0]
			f.Rows, f.Counters = f.Rows[:len(f.Rows)-1], f.Counters[:len(f.Counters)-1]
		}, 1, "ROW-NEW  Fig14["},
		{"wrong scale", func(r *bench.Result) { r.Scale = "quick" }, 2, "was recorded at -scale quick, this run is -scale tiny"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		r, err := bench.Load(baselinePath)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range r.Figures {
			if f.ID == "Fig14" {
				r.Figures = []bench.Figure{f}
			}
		}
		tc.mutate(r)
		mutated := filepath.Join(dir, "baseline.json")
		if err := bench.Write(mutated, r); err != nil {
			t.Fatal(err)
		}
		code, out := fsbench("-fig", "14", "-scale", "tiny",
			"-trace", filepath.Join(dir, "trace.json"), "-compare", mutated)
		if i := strings.Index(out, tc.want); code != tc.code || i < 0 {
			t.Errorf("%s: exit %d, want %d and a line containing %q; got:\n%s", tc.name, code, tc.code, tc.want, out)
		} else {
			t.Logf("%s: exit %d: %s", tc.name, code, strings.SplitN(out[i:], "\n", 2)[0])
		}
	}
}
