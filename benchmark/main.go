// Command benchmark is the repository's performance ledger: six SwitchFS-only
// workloads on the deterministic simulator, measured on both clocks (virtual
// Kops/s and latency percentiles; host µs/op, allocs/op, B/op, live heap),
// with per-layer counters, span self-times from a traced pass and leaf
// probes. See README.md in this directory.
//
//	go run ./benchmark -seed 1                        every workload, writes benchmark/out/
//	go run ./benchmark -seed 1 -against prev.json     and compares with an earlier result
//	bash benchmark/run.sh --workload hotdir-create --seed 1 --seconds 8 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload per process,
// one JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"switchfs/internal/trace"
)

// plan says how much of a workload one invocation measures.
type plan struct {
	// The timed repetitions go on until minReps have run and seconds of
	// host time have passed, or maxReps have run (0: no cap).
	seconds float64
	minReps int
	maxReps int
	// setup_s is the median of at least minSetups set-ups: extra deploy +
	// preload cycles make up what the repetitions do not supply. A
	// hot-directory set-up takes about a millisecond, too little for a
	// handful of samples to give a steady median, so the extra set-ups go on
	// until they have used setupBudget seconds (or maxSetups were taken).
	minSetups   int
	setupBudget float64
	traced      bool
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name       string   `json:"name"`
	OpsPerRep  int      `json:"ops_per_rep"`
	Reps       int      `json:"reps"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	EndToEnd   values   `json:"end_to_end"`
	PerLayer   values   `json:"per_layer"`
	Violations []string `json:"violations,omitempty"`

	traced *rep
}

// measure runs one workload: a discarded warm-up repetition, the timed
// repetitions (each on a fresh simulator, cluster and namespace with the same
// seed), then, if asked, one traced repetition for the layer split.
func measure(s *spec, seed int64, pl plan, probes values) (*workloadResult, error) {
	res := &workloadResult{Name: s.name, OpsPerRep: s.totalOps(), PerLayer: values{}}
	bad := func(r *rep, what string) {
		for _, v := range r.violations {
			res.Violations = append(res.Violations, what+": "+v)
		}
	}
	if _, err := runRep(s, seed, nil); err != nil { // warm-up, discarded
		return nil, err
	}
	start := hostNow()
	var reps []*rep
	var first values
	for len(reps) < pl.minReps || float64(hostNow()-start)/1e9 < pl.seconds {
		if pl.maxReps > 0 && len(reps) == pl.maxReps {
			break
		}
		r, err := runRep(s, seed, nil)
		if err != nil {
			return nil, err
		}
		bad(r, fmt.Sprintf("repetition %d", len(reps)+1))
		vv := virtualValues(r)
		r.samples = nil
		if first == nil {
			first = vv
		} else if d := diffExact(first, vv); len(d) > 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("repetition %d is not a pure function of the seed: %s", len(reps)+1, strings.Join(d, "; ")))
		}
		res.Attempted += r.ops
		res.Failed += r.failed
		reps = append(reps, r)
	}
	res.Reps = len(reps)

	host := hostValues(reps)
	setups, total := host["setup_s"].Reps, 0.0
	for len(setups) < pl.minSetups || (total < pl.setupBudget && len(setups) < maxSetups) {
		sec, err := setupOnly(s, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sec)
		total += sec
	}
	host["setup_s"] = value{V: median(setups), N: len(setups), Reps: setups}

	res.EndToEnd = values{}
	for _, m := range endToEnd {
		v, ok := first[m.name]
		if !ok {
			v = host[m.name]
		}
		v.Unit = m.unit
		res.EndToEnd[m.name] = v
	}
	var traced values
	if pl.traced {
		// Keep every root: the operations, what built the namespace, and
		// the oracle's reads.
		keep := 2*s.totalOps() + 2*s.dirs*(s.filesPerDir+1)
		tr, err := runRep(s, seed, trace.New(trace.Config{Keep: keep}))
		if err != nil {
			return nil, err
		}
		bad(tr, "traced repetition")
		res.traced = tr
		trVirtual := virtualValues(tr)
		tr.samples = nil
		traced = tracedValues(tr, trVirtual, first, host["host_us_per_op"].V)
		if d := diffExact(first, trVirtual); len(d) > 0 {
			res.Violations = append(res.Violations, "tracing perturbed the simulation: "+strings.Join(d, "; "))
		}
		sum := 0.0
		for _, class := range selfShares {
			sum += traced[class].V
		}
		if sum < 0.99 || sum > 1.01 {
			res.Violations = append(res.Violations, fmt.Sprintf("self-time shares sum to %g, want 1", sum))
		}
	}
	for _, m := range perLayer {
		var v value
		switch m.src {
		case 'U':
			var ok bool
			if v, ok = first[m.name]; !ok {
				v = host[m.name]
			}
		case 'T':
			v = traced[m.name]
		case 'P':
			v = probes[m.name]
		}
		v.Unit = m.unit
		res.PerLayer[m.name] = v
	}
	return res, nil
}

const maxSetups = 400

// setupOnly times one more deploy + preload, the part of a repetition that
// setup_s reports.
func setupOnly(s *spec, seed int64) (float64, error) {
	t0 := hostNow()
	d := deploy(seed, s.dataNodes, nil)
	defer d.sim.Shutdown()
	if err := buildNamespace(d, s, newNamespace(s)); err != nil {
		return 0, err
	}
	return float64(hostNow()-t0) / 1e9, nil
}

// header identifies the machine, toolchain and inputs of a result.
type header struct {
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newHeader(seed int64) header {
	h := header{Seed: seed, Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	// go run does not stamp the binary, so ask git; outside a work tree
	// the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// result is the file -out writes and -against reads.
type result struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func printValues(title string, defs []metricDef, vs values) {
	fmt.Printf("  %s\n", title)
	for _, m := range defs {
		v := vs[m.name]
		val := fmt.Sprintf("%.6g", v.V)
		switch {
		case v.NA:
			val = "n/a"
		case v.Missing:
			val = "missing"
		}
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf("  n=%d", v.N)
		}
		if v.Allocs != nil {
			extra += fmt.Sprintf("  %.3g allocs/op", *v.Allocs)
		}
		fmt.Printf("    %-34s %14s %-10s%s\n", m.name, val, m.unit, extra)
	}
}

func printWorkload(r *workloadResult, e2e, layers bool) {
	fmt.Printf("%s: %d ops × %d repetitions, %d failed\n", r.Name, r.OpsPerRep, r.Reps, r.Failed)
	if e2e {
		printValues("end to end", endToEnd, r.EndToEnd)
	}
	if layers {
		printValues("per layer", perLayer, r.PerLayer)
	}
	for _, v := range r.Violations {
		fmt.Printf("  ORACLE: %s\n", v)
	}
}

// driverLine is the one JSON object the BENCHMARK.json contract asks for.
func driverLine(r *workloadResult, vs values) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.Violations) == 0, r.Attempted, r.Failed, map[string]metric{}}
	for name, v := range vs {
		out.Metrics[name] = metric{v.V, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path string, r *workloadResult, probeSpans []hostSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	host := append(append([]hostSpan(nil), r.traced.hostSpans...), probeSpans...)
	if err := writeTraceFile(f, r.traced.spans, host); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the BENCHMARK.json result line")
		seed     = flag.Int64("seed", 1, "seeds the simulator and the operation generators")
		seconds  = flag.Float64("seconds", 0, "with -workload: keep repeating the workload for this long (at least 3 repetitions)")
		traceOn  = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ones (adds a traced repetition and the leaf probes)")
		outDir   = flag.String("outdir", "benchmark/out", "directory for result.json and the trace files")
		out      = flag.String("out", "", "result file (default <outdir>/result.json)")
		against  = flag.String("against", "", "compare with this earlier result file")
		list     = flag.Bool("list", false, "print the metric names and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *list {
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			fmt.Printf("%s\t%s\t%s\n", m.name, m.unit, m.better)
		}
		return 0
	}
	if *workload != "" {
		return runDriver(*workload, *seed, *seconds, *traceOn == 1)
	}

	hdr := newHeader(*seed)
	fmt.Printf("switchfs benchmark: seed %d, commit %s, %s, nproc %d, GOMAXPROCS %d\n",
		hdr.Seed, hdr.Commit, hdr.GoVersion, hdr.NumCPU, hdr.GOMAXPROCS)
	probes, probeSpans := runProbes(1)
	res := result{Header: hdr}
	status := 0
	for i := range workloads {
		s := &workloads[i]
		r, err := measure(s, *seed, plan{minReps: 3, maxReps: 3, minSetups: 5, setupBudget: 0.5, traced: true}, probes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printWorkload(r, true, true)
		if len(r.Violations) > 0 || r.Failed > 0 {
			status = 1
		}
		if err := writeTrace(filepath.Join(*outDir, "trace-"+s.name+".json"), r, probeSpans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		r.traced = nil // release the spans before the next workload
		res.Workloads = append(res.Workloads, r)
	}
	path := *out
	if path == "" {
		path = filepath.Join(*outDir, "result.json")
	}
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	if *against != "" {
		prev, err := readResult(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if regress := compare(os.Stdout, prev, &res); regress > 0 && status == 0 {
			status = 3
		}
	}
	if status == 1 {
		fmt.Println("FAIL: the output oracle found violations (ORACLE lines above)")
	}
	return status
}

// runDriver is the BENCHMARK.json entry point: one workload, one result line.
func runDriver(name string, seed int64, seconds float64, traced bool) int {
	s := findWorkload(name)
	if s == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", name, strings.Join(names, ", "))
		return 2
	}
	pl := plan{seconds: seconds, minReps: 3, minSetups: 9, setupBudget: 0.5}
	var probes values
	if traced {
		// The per-layer view: half the time on untraced repetitions (the
		// counters, and the base the tracing overhead is a ratio of), the
		// rest on the traced repetition and the leaf probes.
		pl = plan{seconds: seconds / 2, minReps: 2, traced: true}
		probes, _ = runProbes(1)
	}
	r, err := measure(s, seed, pl, probes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printWorkload(r, !traced, traced)
	vs := r.EndToEnd
	if traced {
		vs = r.PerLayer
	}
	fmt.Println(driverLine(r, vs))
	if len(r.Violations) > 0 || r.Failed > 0 {
		return 1
	}
	return 0
}
