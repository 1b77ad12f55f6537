package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the distance between a host metric's repetitions as a share of
// their median: what one commit's own runs disagree by.
func spread(v value) float64 {
	if len(v.Reps) < 2 || v.V == 0 {
		return 0
	}
	lo, hi := v.Reps[0], v.Reps[0]
	for _, x := range v.Reps {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return (hi - lo) / v.V
}

// worse is how much worse cur is than prev as a share of prev, signed so that
// positive is a regression whichever direction is better.
func worse(m metricDef, prev, cur float64) float64 {
	if prev == 0 {
		return 0
	}
	d := (cur - prev) / prev
	if m.better == "higher" {
		d = -d
	}
	return d
}

// compare prints one row per (workload, end-to-end metric) and the per-layer
// counters that moved, and returns the number of REGRESS rows. Virtual
// metrics and deterministic counters compare exactly first — with the same
// seed any difference is a behaviour change — and only then against the
// bound. A host metric beyond its bound is UNRESOLVED, not REGRESS, when the
// repetitions of either run disagree among themselves by more than the bound.
func compare(w io.Writer, prev, cur *result) (regress int) {
	fmt.Fprintf(w, "\ncompared with seed %d, commit %s\n", prev.Header.Seed, prev.Header.Commit)
	if prev.Header.Seed != cur.Header.Seed {
		fmt.Fprintf(w, "NOTE: seeds differ (%d vs %d); virtual metrics are not expected to match exactly\n",
			prev.Header.Seed, cur.Header.Seed)
	}
	byName := make(map[string]*workloadResult)
	for _, r := range prev.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "previous", "current", "delta", "bound", "verdict")
	unresolved, moved := 0, 0
	for _, c := range cur.Workloads {
		p := byName[c.Name]
		if p == nil {
			fmt.Fprintf(w, "%-14s (not in the previous result)\n", c.Name)
			continue
		}
		for _, m := range endToEnd {
			pv, cv := p.EndToEnd[m.name], c.EndToEnd[m.name]
			d := worse(m, pv.V, cv.V)
			verdict := "OK"
			switch {
			case m.exact && pv.V == cv.V:
				verdict = "OK (exact)"
			case d <= m.bound:
				if m.exact {
					verdict = "OK (moved)"
				}
			case !m.exact && (spread(pv) > m.bound || spread(cv) > m.bound):
				verdict = "UNRESOLVED"
				unresolved++
			default:
				verdict = "REGRESS"
				regress++
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				c.Name, m.name, pv.V, cv.V, 100*(cv.V-pv.V)/nonZero(pv.V), 100*m.bound, verdict)
		}
		for _, m := range perLayer {
			pv, cv := p.PerLayer[m.name], c.PerLayer[m.name]
			if m.exact && (pv.V != cv.V || pv.NA != cv.NA || pv.Missing != cv.Missing) {
				fmt.Fprintf(w, "%-14s %-34s %14.6g -> %-14.6g MOVED\n", c.Name, m.name, pv.V, cv.V)
				moved++
			}
		}
	}
	fmt.Fprintf(w, "%d REGRESS, %d UNRESOLVED, %d deterministic per-layer counters moved\n", regress, unresolved, moved)
	return regress
}

func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}
