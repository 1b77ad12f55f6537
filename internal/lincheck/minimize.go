package lincheck

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
)

// Minimize shrinks a non-linearizable history to a small subhistory that
// still fails the check. Any divergence report prints the minimized trace, so
// the failing interleaving is readable instead of buried in a full run.
func Minimize(h History) History {
	return MinimizeAgainst(func(sub History) CheckResult { return Check(sub) }, h)
}

// MinimizeAgainst is Minimize with a caller-supplied check (seeded or
// deliberately-broken models).
//
// Delta debugging needs every candidate to be a valid subhistory, one the
// system could have produced: dropping an acknowledged mutation would make the
// reads that observed it illegal, and the "minimal" counterexample would be
// that read against an empty tree. So only three kinds of event go: reads and
// failed operations, which changed nothing, and whole per-client suffixes — the
// client stopped early — that began after every other remaining event
// returned, so nothing left can have observed them. Both passes are
// repeated until neither pass removes anything; the first is ddmin-shaped
// (halves, then quarters, then single events).
func MinimizeAgainst(check func(History) CheckResult, h History) History {
	cur := append(History(nil), h...)
	fails := func(cand History) bool {
		r := check(cand)
		return !r.Ok && !r.Undecided
	}
	for changed := true; changed; {
		changed = false
		// Reads and failed operations, in chunks of the ones left.
		for chunk := len(inert(cur)) / 2; chunk >= 1; chunk /= 2 {
			for start := 0; ; {
				idx := inert(cur)
				if start+chunk > len(idx) {
					break
				}
				if cand := without(cur, idx[start:start+chunk]); fails(cand) {
					cur, changed = cand, true
					continue // same start now covers the next chunk
				}
				start += chunk
			}
		}
		// The last client's unobserved suffix, longest first.
		tail := unobserved(cur)
		for n := len(tail); n >= 1; n-- {
			if cand := without(cur, tail[len(tail)-n:]); fails(cand) {
				cur, changed = cand, true
				break
			}
		}
	}
	return cur
}

// inert returns the indices of the events whose removal leaves the namespace
// history unchanged: reads, and operations that definitely failed (a timed-out
// or retransmitted one may have applied).
func inert(h History) []int {
	var idx []int
	for i, e := range h {
		switch {
		case e.Op.Kind == core.OpStat, e.Op.Kind == core.OpStatDir, e.Op.Kind == core.OpReadDir,
			e.Op.Kind == core.OpOpen, e.Op.Kind == core.OpClose, e.Op.Kind == core.OpLookup,
			e.Out.Err != nil && !e.TimedOut && !e.Resent:
			idx = append(idx, i)
		}
	}
	return idx
}

// unobserved returns the indices of the events that the client invoking last
// issued after every other client's event returned: a suffix of its program,
// since a client's events appear in h in the order it issued them. No other
// client has one.
func unobserved(h History) []int {
	if len(h) == 0 {
		return nil
	}
	latest := 0
	for i, e := range h {
		if e.Call > h[latest].Call {
			latest = i
		}
	}
	c := h[latest].Client
	var last env.Time
	for _, e := range h {
		if e.Client != c {
			last = max(last, e.Ret)
		}
	}
	var idx []int
	for i, e := range h {
		if e.Client == c && e.Call >= last {
			idx = append(idx, i)
		}
	}
	return idx
}

// without returns h minus the events at the (ascending) indices.
func without(h History, idx []int) History {
	out := make(History, 0, len(h)-len(idx))
	for i, e := range h {
		if len(idx) > 0 && idx[0] == i {
			idx = idx[1:]
			continue
		}
		out = append(out, e)
	}
	return out
}
