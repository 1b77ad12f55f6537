package main

import (
	"io"
	"sort"
	"strings"

	"switchfs/internal/env"
	"switchfs/internal/trace"
)

// selfShares are the layer classes an operation's virtual time is split
// across, in the order they are reported.
var selfShares = []string{
	"client.self_share", "wire.self_share", "pswitch.self_share",
	"server.handler_self_share", "server.commit_self_share", "server.agg_self_share",
	"server.txn_self_share", "wal.self_share", "datanode.self_share",
}

// classOf maps a span name to the layer class that owns its self time.
func classOf(name string) string {
	switch {
	case strings.HasPrefix(name, "op:"), name == "lookup":
		return "client.self_share"
	case name == "attempt":
		// In flight or queued: the part of a request/response round that no
		// switch, server or data-node span covers.
		return "wire.self_share"
	case strings.HasPrefix(name, "ds:"):
		return "pswitch.self_share"
	case strings.HasPrefix(name, "commit:"):
		return "server.commit_self_share"
	case name == "agg:run":
		return "server.agg_self_share"
	case strings.HasPrefix(name, "txn:"):
		return "server.txn_self_share"
	case strings.HasPrefix(name, "wal:"):
		return "wal.self_share"
	case strings.HasPrefix(name, "data:"):
		return "datanode.self_share"
	}
	return "server.handler_self_share" // message-named handler spans
}

// layerSplit is what the traced repetition yields.
type layerSplit struct {
	self     map[string]env.Duration // class → self time on the roots' timelines
	rootTime env.Duration            // Σ root-op virtual time
	roots    int
	attempts int
	spans    int
}

// splitLayers attributes every instant of every root operation to exactly
// one span: the most recently started span still open at that instant, looked
// for from the root down. The server, switch and data-node spans of a request
// are siblings of the client's "attempt" span (every retransmission carries
// the op's context), so this rule is what leaves an attempt only the time no
// switch, server or data-node span covers; among parallel children (replica
// or 2PC fan-out) the latest-started owns the overlap, and work that outlives
// its root (an async commit finishing after the reply) is clipped to the
// root's window. The classes therefore sum to the roots' total exactly, which
// is what lets them be read as shares.
func splitLayers(spans []trace.Span) layerSplit {
	ls := layerSplit{self: make(map[string]env.Duration), spans: len(spans)}
	kids := make(map[uint64][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if s.Name == "attempt" {
			ls.attempts++
		}
		if s.Parent == 0 {
			roots = append(roots, i)
		} else {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for _, ks := range kids {
		sort.Slice(ks, func(a, b int) bool {
			sa, sb := spans[ks[a]], spans[ks[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.ID < sb.ID
		})
	}
	// walk splits [lo, hi) of span i between i and its descendants.
	var walk func(i int, lo, hi env.Time)
	walk = func(i int, lo, hi env.Time) {
		class := classOf(spans[i].Name)
		var open []int // children started and not yet seen to end, by start
		cur := lo
		advance := func(to env.Time) {
			for cur < to {
				for len(open) > 0 && spans[open[len(open)-1]].End <= cur {
					open = open[:len(open)-1]
				}
				if len(open) == 0 {
					ls.self[class] += to - cur
					cur = to
					return
				}
				top := open[len(open)-1]
				end := spans[top].End
				if end > to {
					end = to
				}
				walk(top, cur, end)
				cur = end
			}
		}
		for _, k := range kids[spans[i].ID] {
			if spans[k].Start >= hi {
				break
			}
			if spans[k].End <= lo {
				continue
			}
			advance(spans[k].Start) // a no-op for a child already open at lo
			open = append(open, k)
		}
		advance(hi)
	}
	for _, i := range roots {
		ls.roots++
		ls.rootTime += spans[i].Dur()
		walk(i, spans[i].Start, spans[i].End)
	}
	return ls
}

// tracedValues computes the per-layer numbers of the traced repetition.
// trVirtual is its virtual values, untraced those of the timed repetitions,
// hostUsPerOp their median host cost.
func tracedValues(tr *rep, trVirtual, untraced values, hostUsPerOp float64) values {
	vs := values{}
	ls := splitLayers(tr.spans)
	for _, class := range selfShares {
		vs.set(class, float64(ls.self[class])/float64(ls.rootTime), ls.roots)
	}
	vs.set("client.attempts_per_op", float64(ls.attempts)/float64(ls.roots), ls.roots)
	vs.set("trace.spans_per_op", float64(ls.spans)/float64(ls.roots), ls.roots)
	vs.set("trace.host_overhead_ratio", tr.loadS*1e6/float64(tr.ops)/hostUsPerOp, 1)
	vs.set("trace.sim_perturbation", trVirtual["sim_kops"].V/untraced["sim_kops"].V-1, 0)
	return vs
}

// traceFileOps is how many of the slowest root operations a trace file
// holds; the layer split above uses every root.
const traceFileOps = 256

// hostTraceID is the trace id host-clock spans are filed under, out of the
// recorder's range.
const hostTraceID = 1 << 62

// writeTraceFile writes the slowest operations' virtual spans and the
// benchmark's own host-clock spans (category "host", pid 0, nanoseconds since
// process start) as one Chrome trace-event file.
func writeTraceFile(w io.Writer, spans []trace.Span, host []hostSpan) error {
	type root struct {
		trace uint64
		dur   env.Duration
	}
	var roots []root
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, root{s.Trace, s.Dur()})
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].dur != roots[j].dur {
			return roots[i].dur > roots[j].dur
		}
		return roots[i].trace < roots[j].trace
	})
	if len(roots) > traceFileOps {
		roots = roots[:traceFileOps]
	}
	keep := make(map[uint64]bool, len(roots))
	for _, r := range roots {
		keep[r.trace] = true
	}
	var out []trace.Span
	for _, s := range spans {
		if keep[s.Trace] {
			out = append(out, s)
		}
	}
	ids := make(map[string]uint64, len(host))
	for i, h := range host {
		ids[h.name] = hostTraceID + uint64(i) + 1
	}
	for _, h := range host {
		out = append(out, trace.Span{
			Trace: hostTraceID, ID: ids[h.name], Parent: ids[h.parent],
			Name: h.name, Cat: "host", Start: h.start, End: h.end,
		})
	}
	return trace.WriteJSON(w, out)
}
