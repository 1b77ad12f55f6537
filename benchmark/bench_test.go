package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"switchfs/internal/trace"
)

// smokeScale divides every workload's per-worker op count in the smoke test.
const smokeScale = 16

// TestSmoke runs every workload at 1/16 op count three times: untraced and
// traced with one seed — which must agree on every virtual number, so the
// run is a pure function of the seed and tracing perturbs nothing — and
// untraced with another seed, which must not (the seed is live).
func TestSmoke(t *testing.T) {
	for i := range workloads {
		s := workloads[i].scaled(smokeScale)
		t.Run(s.name, func(t *testing.T) {
			run := func(seed int64, rec *trace.Recorder) (*rep, values) {
				r, err := runRep(s, seed, rec)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range r.violations {
					t.Errorf("seed %d: oracle: %s", seed, v)
				}
				if r.ops != s.totalOps() || r.failed != 0 {
					t.Errorf("seed %d: %d ops, %d failed; want %d, 0", seed, r.ops, r.failed, s.totalOps())
				}
				return r, virtualValues(r)
			}
			_, plain := run(1, nil)
			tr, traced := run(1, trace.New(trace.Config{Keep: 1 << 20}))
			_, other := run(2, nil)
			if d := diffExact(plain, traced); len(d) > 0 {
				t.Errorf("same seed, different virtual numbers: %s", strings.Join(d, "; "))
			}
			if d := diffExact(plain, other); len(d) == 0 {
				t.Error("seed 2 gave the same virtual numbers as seed 1: the seed is not live")
			}
			tv := tracedValues(tr, traced, plain, 1)
			sum := 0.0
			for _, class := range selfShares {
				sum += tv[class].V
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("self-time shares sum to %g, want 1 ± 0.01", sum)
			}
			if got := int(tv["client.self_share"].N); got != s.totalOps() {
				t.Errorf("traced %d root operations, want %d", got, s.totalOps())
			}
		})
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchContract checks, in both directions, that what the benchmark
// prints is what BENCHMARK.json lists: workloads, metric names, units and
// directions.
func TestNamesMatchContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || strings.TrimSuffix(bj.Paths[0], "/") != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}

	want := map[string]string{}
	for _, w := range bj.Workloads {
		want[w.Name] = w.Why
	}
	for _, s := range workloads {
		if why, ok := want[s.name]; !ok || why != s.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the benchmark %q", s.name, why, s.why)
		}
		delete(want, s.name)
	}
	for name := range want {
		t.Errorf("workload %s is in BENCHMARK.json but not in the benchmark", name)
	}

	listed := map[string][2]string{}
	for _, m := range bj.EndToEnd {
		listed[m.Name] = [2]string{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	nE2E := len(listed)
	for _, m := range bj.PerLayer {
		listed[m.Name] = [2]string{m.Unit, m.Better}
	}
	if nE2E != len(endToEnd) || len(listed)-nE2E != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d + %d metrics, the benchmark has %d + %d",
			nE2E, len(listed)-nE2E, len(endToEnd), len(perLayer))
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %v", m.name, nameRE)
		}
		if got, ok := listed[m.name]; !ok || got != [2]string{m.unit, m.better} {
			t.Errorf("%s: BENCHMARK.json says %v, the benchmark (%s, %s)", m.name, got, m.unit, m.better)
		}
		delete(listed, m.name)
	}
	for name := range listed {
		t.Errorf("metric %s is in BENCHMARK.json but the benchmark does not print it", name)
	}
}

// TestEveryMetricIsProduced runs one small workload through measure and the
// probes at a fraction of their iteration counts: every name in the catalogue
// must come out with a value, and nothing else.
func TestEveryMetricIsProduced(t *testing.T) {
	probes, _ := runProbes(200)
	s := findWorkload("hotdir-mixed").scaled(smokeScale)
	r, err := measure(s, 1, plan{minReps: 2, maxReps: 2, minSetups: 3, traced: true}, probes)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Violations {
		t.Errorf("oracle: %s", v)
	}
	check := func(kind string, defs []metricDef, vs values) {
		if len(vs) != len(defs) {
			t.Errorf("%s: %d values for %d metrics", kind, len(vs), len(defs))
		}
		for _, m := range defs {
			v, ok := vs[m.name]
			switch {
			case !ok:
				t.Errorf("%s: %s was not produced", kind, m.name)
			case v.Unit != m.unit:
				t.Errorf("%s: %s has unit %q, want %q", kind, m.name, v.Unit, m.unit)
			case m.src == 'P' && v.V <= 0:
				t.Errorf("%s: probe %s measured %g", kind, m.name, v.V)
			case math.IsNaN(v.V) || math.IsInf(v.V, 0):
				t.Errorf("%s: %s is %g", kind, m.name, v.V)
			}
		}
	}
	check("end to end", endToEnd, r.EndToEnd)
	check("per layer", perLayer, r.PerLayer)
	for _, m := range endToEnd {
		if r.EndToEnd[m.name].V <= 0 {
			t.Errorf("end-to-end metric %s is %g; the contract wants it never 0", m.name, r.EndToEnd[m.name].V)
		}
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(driverLine(r, r.EndToEnd)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 2*s.totalOps() || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("result line: %+v", line)
	}
}

// TestCompareVerdicts pins -against: exact equality for virtual metrics,
// REGRESS beyond the bound, UNRESOLVED when a run's own repetitions disagree
// by more than the bound.
func TestCompareVerdicts(t *testing.T) {
	mk := func(kops, host float64, reps []float64) *result {
		e := values{}
		for _, m := range endToEnd {
			e[m.name] = value{V: 1}
		}
		e["sim_kops"] = value{V: kops}
		e["host_us_per_op"] = value{V: host, Reps: reps}
		return &result{Workloads: []*workloadResult{{Name: "w", EndToEnd: e, PerLayer: values{}}}}
	}
	cases := []struct {
		name      string
		prev, cur *result
		regress   int
		want      string
	}{
		{"same", mk(100, 10, []float64{10, 10, 10}), mk(100, 10, []float64{10, 10, 10}), 0, "OK (exact)"},
		{"virtual within bound", mk(100, 10, nil), mk(99.5, 10, nil), 0, "OK (moved)"},
		{"virtual regress", mk(100, 10, nil), mk(90, 10, nil), 1, "REGRESS"},
		{"host regress", mk(100, 10, []float64{10, 10, 10}), mk(100, 12, []float64{12, 12, 12}), 1, "REGRESS"},
		{"host unresolved", mk(100, 10, []float64{9, 10, 11}), mk(100, 12, []float64{10, 12, 14}), 0, "UNRESOLVED"},
		{"host better", mk(100, 10, []float64{10, 10, 10}), mk(100, 5, []float64{5, 5, 5}), 0, "0 REGRESS, 0 UNRESOLVED"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if got := compare(&buf, c.prev, c.cur); got != c.regress || !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: %d regressions, want %d and %q in:\n%s", c.name, got, c.regress, c.want, buf.String())
		}
	}
}

// TestSplitLayers pins the self-time rule on a hand-built trace: siblings
// that overlap, a child that outlives its root, and a nested child.
func TestSplitLayers(t *testing.T) {
	spans := []trace.Span{
		{Trace: 1, ID: 1, Name: "op:create", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "attempt", Start: 10, End: 90},
		{Trace: 1, ID: 3, Parent: 1, Name: "ds:insert", Start: 20, End: 30},
		{Trace: 1, ID: 4, Parent: 1, Name: "mutate", Start: 40, End: 80},
		{Trace: 1, ID: 5, Parent: 4, Name: "wal:commit", Start: 50, End: 60},
		{Trace: 1, ID: 6, Parent: 4, Name: "commit:async", Start: 70, End: 150},
	}
	ls := splitLayers(spans)
	want := map[string]int64{
		"client.self_share":         20, // 0–10, 90–100
		"wire.self_share":           30, // 10–20, 30–40, 80–90
		"pswitch.self_share":        10,
		"server.handler_self_share": 20, // 40–50, 60–70
		"wal.self_share":            10,
		"server.commit_self_share":  10, // 70–80: clipped to its parent's window
	}
	var sum int64
	for class, w := range want {
		if got := ls.self[class]; got != w {
			t.Errorf("%s: self time %d, want %d", class, got, w)
		}
		sum += ls.self[class]
	}
	if sum != 100 || ls.rootTime != 100 || ls.roots != 1 || ls.attempts != 1 {
		t.Errorf("sum %d, root time %d, %d roots, %d attempts", sum, ls.rootTime, ls.roots, ls.attempts)
	}
}

// TestGofmt keeps the package gofmt-clean; go vet runs with go test.
func TestGofmt(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := format.Source(src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src, out) {
			t.Errorf("%s is not gofmt-clean", f)
		}
	}
}
