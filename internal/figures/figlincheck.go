package figures

import (
	"fmt"
	"strings"

	"switchfs/internal/lincheck"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// FigLincheck is the linearizability + differential-model checking figure:
// a seed sweep of (1) sequential differential programs diffed across the
// reference model, SwitchFS and the baseline, (2) concurrent multi-client
// histories on a healthy cluster, and (3) concurrent histories across the
// fault-plan catalog (chaos plan reuse), each searched WGL-style for a legal
// linearization. One row per mode; any divergence or non-linearizable
// history panics with the minimized counterexample — like FigChaos, this
// figure doubles as a correctness gate. The sweep starts at sc.Seed
// (`fsbench -fig lincheck -seed N` sweeps scenario space).
func FigLincheck(sc Scale) Table {
	seed := sc.seed()
	t := Table{
		ID:    "lincheck",
		Title: "Linearizability and differential-model checking (seed sweep)",
		Header: []string{
			"mode", "seeds", "histories", "ops", "ambiguous", "violations",
		},
	}

	// Seed budget per mode scales with the configured load (tiny 4, quick 8,
	// paper 32).
	seeds := int64(sc.Workers / 8)
	if seeds < 2 {
		seeds = 2
	}
	if seeds > 32 {
		seeds = 32
	}

	var failures []string
	row := func(mode string, histories, ops, ambiguous, violations int, packets uint64) {
		t.AddRow(stats.Counters{Ops: uint64(ops), PacketsDelivered: packets}, []string{
			mode,
			fmt.Sprintf("%d", seeds),
			fmt.Sprintf("%d", histories),
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%d", ambiguous),
			fmt.Sprintf("%d", violations),
		})
	}

	// Mode 1: sequential differential programs — the adversarial small-pool
	// generator and the PanguMix-derived trace shape.
	diffMode := func(mode string, program func(s int64) []workload.Op) {
		ops, violations := 0, 0
		var packets uint64
		for s := seed; s < seed+seeds; s++ {
			rep := lincheck.RunDiff(s, program(s))
			ops += rep.Ops
			packets += rep.Packets
			if rep.Failed() {
				violations += len(rep.Divergences)
				for _, d := range rep.Divergences {
					failures = append(failures, fmt.Sprintf("%s seed %d: %s", mode, s, d))
				}
			}
		}
		row(mode, int(seeds), ops, 0, violations, packets)
	}
	diffMode("differential", func(s int64) []workload.Op {
		return lincheck.GenProgram(s, 3, 40, lincheck.AdversarialMix).Flatten()
	})
	diffMode("differential-mix", func(s int64) []workload.Op {
		return lincheck.MixProgram(s, 60)
	})

	// Mode 2: concurrent histories, fault-free.
	runConcurrent := func(mode string, plan func(int64) (string, *lincheck.Report)) {
		histories, ops, ambiguous, violations := 0, 0, 0, 0
		var packets uint64
		for s := seed; s < seed+seeds; s++ {
			name, rep := plan(s)
			histories++
			ops += len(rep.Run.History)
			packets += rep.Run.Packets
			for _, e := range rep.Run.History {
				if e.TimedOut {
					ambiguous++
				}
			}
			if rep.Failed() {
				violations++
				failures = append(failures, fmt.Sprintf("%s seed %d: issues=%v linearizable=%v",
					name, s, rep.Run.Issues, rep.Check.Ok))
				if rep.Counterexample != nil {
					failures = append(failures, "minimized counterexample:\n"+rep.Counterexample.String())
				}
			}
		}
		row(mode, histories, ops, ambiguous, violations, packets)
	}
	runConcurrent("concurrent", func(s int64) (string, *lincheck.Report) {
		return "concurrent", lincheck.CheckConcurrent(s, lincheck.GenProgram(s, 4, 7, lincheck.AdversarialMix), nil)
	})

	// Mode 3: concurrent histories across the fault-plan catalog. Rows are
	// labeled by catalog position (the random plan's own name embeds the
	// seed, which would defeat cross-run row comparison).
	planNames := []string{"server-crash", "switch-reboot", "flaky-links", "reconfig-crash",
		"coordinator-crash", "rebalance-crash", "random"}
	if got := len(lincheck.Plans(seed)); got != len(planNames) {
		panic(fmt.Sprintf("figures: lincheck plan catalog has %d plans, labels cover %d", got, len(planNames)))
	}
	for i, pname := range planNames {
		i := i
		runConcurrent("plan:"+pname, func(s int64) (string, *lincheck.Report) {
			plan := lincheck.Plans(s)[i]
			return "plan:" + plan.Name, lincheck.CheckConcurrent(s, lincheck.GenProgram(s, 3, 6, lincheck.AdversarialMix), &plan)
		})
	}

	if len(failures) > 0 {
		panic(fmt.Sprintf("figures: lincheck reported %d failures:\n  %s",
			len(failures), strings.Join(failures, "\n  ")))
	}
	return t
}
