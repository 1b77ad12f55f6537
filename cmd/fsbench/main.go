// Command fsbench regenerates the tables and figures of the SwitchFS paper's
// evaluation on the deterministic simulator.
//
// Usage:
//
//	fsbench -fig all -scale quick
//	fsbench -fig 12a,13,14 -scale paper
//	fsbench -fig 12a,14 -scale tiny -format json -out run.json
//	fsbench -fig 12a,14 -scale tiny -compare run.json
//	fsbench -fig 12a -scale tiny -trace trace.json
//	fsbench -fig gated -scale tiny -trace trace.json -compare bench/baseline.json
//	fsbench -validate run.json
//
// Figure ids: 2a 2b 2c 2d 12a 12b 13 14 overflow 15a 15b 16 17 18a 18b 19
// recovery chaos rebalance data lincheck scale; `all` selects every one and
// `gated` the set committed in bench/baseline.json. Scales: tiny, quick,
// paper (paper takes minutes per figure). The chaos figure runs the fault-plan
// availability harness; -seed selects its random plan (and simulation seeds),
// and any checker violation aborts the run non-zero. The rebalance figure
// drives a skewed workload while the hot-directory balancer and a live
// Reconfigure migrate fingerprint groups; a traffic window with zero
// successful ops during pure migration, a plan that moves nothing, or any
// checker violation aborts it. The data figure benchmarks the
// replicated striped data plane and its crash recovery; a lost acknowledged
// content write aborts it the same way. The lincheck figure sweeps seeds
// through the linearizability + differential-model checker (sequential
// diffs against the baseline, concurrent histories fault-free and under
// fault plans); any divergence or non-linearizable history aborts with a
// minimized counterexample trace. The scale figure sweeps open-loop client
// populations against namespace sizes.
//
// -format json emits the versioned internal/bench schema (figure cells,
// per-row op/packet counters, per-figure metrics deltas); -compare re-runs
// the selected figures and diffs them exactly against a previous JSON
// result, printing every changed cell, header, row, figure, row counter and
// metric and exiting non-zero if there is any; -validate checks a result
// file against the schema without running anything.
//
// -trace=<path> records causal spans (virtual-time, tail-sampled) across
// every figure run and writes a Chrome trace-event JSON file loadable in
// Perfetto. Inspect or validate a trace with `fsctl trace`.
//
// Everything fsbench writes is virtual time or a deterministic count, so the
// result and the trace are pure functions of (-fig, -scale, -seed) and two
// runs are byte-identical; TestGate holds the tree to that and to
// bench/baseline.json on every `go test ./...`. What a run costs the host
// (wall time, bytes/op, allocs/op, live heap) is benchmark/'s and `go test
// -bench`'s to measure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"switchfs/internal/bench"
	"switchfs/internal/figures"
	"switchfs/internal/metrics"
	"switchfs/internal/trace"
)

// gatedFigs is the one list of figures in the committed trajectory
// (bench/baseline.json): what `-fig gated` selects.
const gatedFigs = "12a,14,chaos,rebalance,data,lincheck,scale,recovery"

var registry = []struct {
	id string
	fn func(figures.Scale) figures.Table
}{
	{"2a", figures.Fig2a},
	{"2b", figures.Fig2b},
	{"2c", figures.Fig2c},
	{"2d", figures.Fig2d},
	{"12a", figures.Fig12a},
	{"12b", figures.Fig12b},
	{"13", figures.Fig13},
	{"14", figures.Fig14},
	{"overflow", figures.Overflow},
	{"15a", figures.Fig15a},
	{"15b", figures.Fig15b},
	{"16", figures.Fig16},
	{"17", figures.Fig17},
	{"18a", figures.Fig18a},
	{"18b", figures.Fig18b},
	{"19", figures.Fig19},
	{"recovery", figures.Recovery},
	{"chaos", figures.FigChaos},
	{"rebalance", figures.FigRebalance},
	{"data", figures.FigData},
	{"lincheck", figures.FigLincheck},
	{"scale", figures.FigScale},
}

// figureIDs lists the registry's ids in generation order.
func figureIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

func usageRegistry(w io.Writer) {
	fmt.Fprintf(w, "known figure ids: %s\n", strings.Join(figureIDs(), " "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool on its own flag set and writers: parse args, run the
// selected figures, write and compare as asked, return the exit status: 1
// when -compare finds a change or -validate rejects the file, 2 when the
// run cannot be done (a bad flag, an unreadable baseline, a failed write).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figFlag := fs.String("fig", "all", "comma-separated figure ids, 'all', or 'gated' ("+gatedFigs+")")
	scaleFlag := fs.String("scale", "quick", "tiny | quick | paper")
	formatFlag := fs.String("format", "text", "text | json")
	outFlag := fs.String("out", "", "write results to this file (json format)")
	compareFlag := fs.String("compare", "", "diff results exactly against a previous json result file; exit 1 on any change")
	validateFlag := fs.String("validate", "", "validate a json result file against the schema and exit")
	seedFlag := fs.Int64("seed", 1, "seed for the chaos, rebalance, data, lincheck and scale figures' plans and simulations")
	traceFlag := fs.String("trace", "", "record causal spans for every figure run and write a Chrome trace-event JSON file here")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "fsbench: "+format+"\n", a...)
		return code
	}

	if *validateFlag != "" {
		r, err := bench.Load(*validateFlag)
		if err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "%s: valid (schema %d, scale %s, %d figures)\n",
			*validateFlag, r.Schema, r.Scale, len(r.Figures))
		return 0
	}

	var sc figures.Scale
	switch *scaleFlag {
	case "tiny":
		sc = figures.Tiny()
	case "quick":
		sc = figures.Quick()
	case "paper":
		sc = figures.Paper()
	default:
		return fail(2, "unknown scale %q", *scaleFlag)
	}
	sc.Seed = *seedFlag
	if *formatFlag != "text" && *formatFlag != "json" {
		return fail(2, "unknown format %q", *formatFlag)
	}

	// Resolve the figure selection up front: an unknown id is an error (it
	// used to silently run nothing and exit 0).
	known := map[string]bool{}
	for _, id := range figureIDs() {
		known[id] = true
	}
	ids := *figFlag
	switch ids {
	case "all":
		ids = strings.Join(figureIDs(), ",")
	case "gated":
		ids = gatedFigs
	}
	want := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !known[id] {
			fail(2, "unknown figure id %q", id)
			usageRegistry(stderr)
			return 2
		}
		want[id] = true
	}
	if len(want) == 0 {
		fail(2, "no figure selected by -fig %q", *figFlag)
		usageRegistry(stderr)
		return 2
	}

	// Validate flag combinations and the comparison baseline BEFORE the
	// figures run: a paper-scale generation takes minutes per figure, and a
	// late flag error would throw the whole run away.
	if *outFlag != "" && *formatFlag != "json" {
		return fail(2, "-out requires -format json")
	}
	var baseline *bench.Result
	if *compareFlag != "" {
		var err error
		baseline, err = bench.Load(*compareFlag)
		if err != nil {
			return fail(2, "%v", err)
		}
		if baseline.Scale != *scaleFlag {
			return fail(2, "baseline %s was recorded at -scale %s, this run is -scale %s — comparing different configurations cell-by-cell is meaningless",
				*compareFlag, baseline.Scale, *scaleFlag)
		}
	}

	result := &bench.Result{
		Schema:    bench.SchemaVersion,
		Tool:      "fsbench",
		Scale:     *scaleFlag,
		GoVersion: runtime.Version(),
	}
	// One metrics registry, and with -trace one recorder, shared across the
	// selected figures. Both are pure functions of the simulation seeds, so
	// the per-figure metrics deltas and the trace file are byte-identical
	// across same-seed runs (TestGate holds them to it).
	var rec *trace.Recorder
	if *traceFlag != "" {
		rec = trace.New(trace.Config{})
	}
	reg := metrics.New()
	figures.SetObservability(rec, reg)
	defer figures.SetObservability(nil, nil)
	for _, entry := range registry {
		if !want[entry.id] {
			continue
		}
		metBefore := reg.Snapshot()
		tab := entry.fn(sc)
		if *formatFlag == "text" && *compareFlag == "" {
			fmt.Fprintf(stdout, "%s\n", tab)
		}
		result.Figures = append(result.Figures, bench.Figure{
			ID:       tab.ID,
			Title:    tab.Title,
			Header:   tab.Header,
			Rows:     tab.Rows,
			Counters: tab.Meta,
			Metrics:  metrics.Delta(metBefore, reg.Snapshot()),
		})
	}

	if rec != nil {
		f, err := os.Create(*traceFlag)
		if err != nil {
			return fail(2, "%v", err)
		}
		err = rec.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(2, "%s: %v", *traceFlag, err)
		}
		fmt.Fprintf(stderr, "fsbench: wrote trace %s (%d traces kept)\n",
			*traceFlag, len(rec.KeptTraces()))
		fmt.Fprint(stderr, rec.Summary(5))
	}

	if *outFlag != "" {
		// Write the fresh result even when comparing, so refreshing a
		// baseline and gating against the old one are one run.
		if err := bench.Write(*outFlag, result); err != nil {
			return fail(2, "%v", err)
		}
		fmt.Fprintf(stderr, "fsbench: wrote %s (%d figures)\n", *outFlag, len(result.Figures))
	}

	if baseline != nil {
		changes := bench.Compare(baseline, result)
		report(stdout, changes)
		if len(changes) > 0 {
			return 1
		}
		return 0
	}

	if *formatFlag == "json" && *outFlag == "" {
		data, err := bench.Marshal(result)
		if err != nil {
			return fail(2, "%v", err)
		}
		stdout.Write(data)
	}
	return 0
}

// report prints every change, then one summary line counting them by kind.
func report(w io.Writer, changes []bench.Change) {
	byKind := map[bench.Kind]int{}
	for _, c := range changes {
		fmt.Fprintf(w, "CHANGED  %s\n", c)
		byKind[c.Kind]++
	}
	counts := make([]string, len(bench.Kinds))
	for i, k := range bench.Kinds {
		counts[i] = fmt.Sprintf("%s %d", k, byKind[k])
	}
	fmt.Fprintf(w, "compared: %d changes (%s)\n", len(changes), strings.Join(counts, ", "))
}
