// Package trace implements deterministic causal tracing over virtual time.
//
// A traced operation is a tree of spans. The root span opens at a client op
// entry point; every hop the op takes — switch pipe traversal, server handler
// execution, WAL appends, aggregation waits, 2PC rounds, data-plane
// replication — opens a child span linked through env.TraceCtx, which
// travels in wire packet headers and in each Proc's ambient slot. All
// timestamps are virtual (env.Time), so a trace is a pure function of the
// simulation seed: two same-seed runs export byte-identical trace files,
// and cmd/fsbench's TestGate holds the tree to exactly that.
//
// Memory is bounded by tail-based sampling: a trace's spans buffer while the
// op is in flight, and when the root span ends the trace is kept only if it
// is among the Keep slowest ops seen so far or was explicitly flagged
// (client-observed errors, oracle taints); everything else is discarded.
// Late spans of a discarded trace (straggling retransmissions) are dropped
// silently. The export format is Chrome trace-event JSON (load it in
// Perfetto / chrome://tracing), plus a critical-path summary that attributes
// each slow op's virtual time to the span names it was spent under.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"switchfs/internal/env"
)

// Span is one timed section of a traced operation.
type Span struct {
	Trace  uint64     // trace this span belongs to
	ID     uint64     // unique span id (never reused within a Recorder)
	Parent uint64     // parent span id; 0 for the root
	Name   string     // e.g. "op:rename", "switch:query", "wal:txn-prepare"
	Cat    string     // plane: "client", "switch", "server", "data"
	Node   env.NodeID // node the span executed on
	Start  env.Time   // virtual open time
	End    env.Time   // virtual close time
}

// Dur returns the span's virtual duration.
func (s Span) Dur() env.Duration { return s.End - s.Start }

// Config tunes a Recorder.
type Config struct {
	// Keep is the number of slowest root ops retained (tail sampling).
	// Flagged traces are kept in addition. Default 32.
	Keep int
}

// maxActive bounds concurrently in-flight traces; roots beyond it are not
// traced (counted in DroppedTraces).
const maxActive = 65536

// maxSpansPerTrace caps one trace's buffer so a pathological retry storm
// cannot hold unbounded memory; spans beyond the cap are dropped (the drop
// point is deterministic, so exports stay byte-identical).
const maxSpansPerTrace = 8192

// traceBuf accumulates one trace's spans while it is in flight or kept.
type traceBuf struct {
	id      uint64
	rootID  uint64
	spans   []Span
	flagged string // non-empty: keep regardless of duration
	// background marks work no client operation is the root of (a server's
	// recovery): always kept, and kept apart from the operation traces.
	background bool
	done       bool
	dur        env.Duration
}

// Recorder collects spans and tail-samples finished traces.
type Recorder struct {
	cfg       Config
	nextTrace uint64
	nextSpan  uint64
	active    map[uint64]*traceBuf
	kept      map[uint64]*traceBuf
	slow      []*traceBuf // kept-by-duration subset, unordered

	// DroppedTraces counts roots refused because maxActive was reached.
	DroppedTraces uint64
}

// New builds a Recorder. A nil *Recorder is a valid no-op recorder: every
// method (and every handle it returns) is nil-safe, so call sites need no
// enabled-checks.
func New(cfg Config) *Recorder {
	if cfg.Keep <= 0 {
		cfg.Keep = 32
	}
	return &Recorder{
		cfg:    cfg,
		active: make(map[uint64]*traceBuf),
		kept:   make(map[uint64]*traceBuf),
	}
}

// Handle is an open span. End closes it, records it, and restores the
// proc's previous ambient context. A nil handle is a no-op.
type Handle struct {
	r    *Recorder
	p    *env.Proc
	s    Span
	prev env.TraceCtx
}

// Ctx returns the context naming this span (stamp it into outbound packets
// so remote work nests under it).
func (h *Handle) Ctx() env.TraceCtx {
	if h == nil {
		return env.TraceCtx{}
	}
	return env.TraceCtx{TraceID: h.s.Trace, SpanID: h.s.ID}
}

// TraceID returns the trace the span belongs to (0 for a no-op handle).
func (h *Handle) TraceID() uint64 {
	if h == nil {
		return 0
	}
	return h.s.Trace
}

// End closes the span at the current virtual time and records it.
func (h *Handle) End() {
	if h == nil {
		return
	}
	h.s.End = h.p.Now()
	h.p.SetTraceCtx(h.prev)
	h.r.record(h.s)
}

// StartRoot opens a new trace rooted at the calling proc and makes it the
// ambient context.
func (r *Recorder) StartRoot(p *env.Proc, name, cat string) *Handle {
	if r == nil {
		return nil
	}
	if len(r.active) >= maxActive {
		r.DroppedTraces++
		return nil
	}
	r.nextTrace++
	r.nextSpan++
	tid, sid := r.nextTrace, r.nextSpan
	r.active[tid] = &traceBuf{id: tid, rootID: sid}
	return r.open(p, Span{Trace: tid, ID: sid, Name: name, Cat: cat})
}

// StartBackground is StartRoot for work that is not a client operation (a
// server's recovery). The trace is always kept, reported by Background and
// written by WriteJSON, and never among Spans: operation counts, tail
// sampling and the critical-path summary see operations only.
func (r *Recorder) StartBackground(p *env.Proc, name, cat string) *Handle {
	h := r.StartRoot(p, name, cat)
	if h != nil {
		r.active[h.s.Trace].background = true
	}
	return h
}

// StartSpan opens a child of the given context (typically a packet's). It
// returns nil — and records nothing — when the context is invalid.
func (r *Recorder) StartSpan(p *env.Proc, ctx env.TraceCtx, name, cat string) *Handle {
	if r == nil || !ctx.Valid() {
		return nil
	}
	r.nextSpan++
	sid := r.nextSpan
	return r.open(p, Span{Trace: ctx.TraceID, ID: sid, Parent: ctx.SpanID, Name: name, Cat: cat})
}

// Start opens a child of the proc's ambient context (the usual in-handler
// annotation: WAL append, lock wait, prepare round).
func (r *Recorder) Start(p *env.Proc, name, cat string) *Handle {
	if r == nil {
		return nil
	}
	return r.StartSpan(p, p.TraceCtx(), name, cat)
}

// StartAuto opens a child of the ambient context when one is live and a new
// root otherwise (client op entry points, which may themselves be nested —
// e.g. path resolution inside a mutation).
func (r *Recorder) StartAuto(p *env.Proc, name, cat string) *Handle {
	if r == nil {
		return nil
	}
	if p.TraceCtx().Valid() {
		return r.StartSpan(p, p.TraceCtx(), name, cat)
	}
	return r.StartRoot(p, name, cat)
}

func (r *Recorder) open(p *env.Proc, s Span) *Handle {
	s.Node = p.Self()
	s.Start = p.Now()
	h := &Handle{r: r, p: p, s: s, prev: p.TraceCtx()}
	p.SetTraceCtx(env.TraceCtx{TraceID: s.Trace, SpanID: s.ID})
	return h
}

// Flag marks a trace as must-keep (client-observed error, oracle taint).
// Flagging an already-discarded trace is a silent no-op.
func (r *Recorder) Flag(traceID uint64, reason string) {
	if r == nil || traceID == 0 {
		return
	}
	if b := r.active[traceID]; b != nil {
		if b.flagged == "" {
			b.flagged = reason
		}
		return
	}
	if b := r.kept[traceID]; b != nil && b.flagged == "" {
		b.flagged = reason
	}
}

// record files a closed span, finishing the trace when it is the root.
func (r *Recorder) record(s Span) {
	b := r.active[s.Trace]
	if b == nil {
		b = r.kept[s.Trace] // late span of a kept trace (straggler)
	}
	if b == nil {
		return // trace was sampled out; drop
	}
	if len(b.spans) < maxSpansPerTrace {
		b.spans = append(b.spans, s)
	}
	if !b.done && s.ID == b.rootID {
		b.done = true
		b.dur = s.End - s.Start
		delete(r.active, s.Trace)
		r.sample(b)
	}
}

// sample applies the tail-sampling policy to a finished trace. Caller holds
// the lock.
func (r *Recorder) sample(b *traceBuf) {
	if b.flagged != "" || b.background {
		r.kept[b.id] = b
		return
	}
	if len(r.slow) < r.cfg.Keep {
		r.slow = append(r.slow, b)
		r.kept[b.id] = b
		return
	}
	// Evict the current fastest if the newcomer is strictly slower; ties
	// keep the incumbent — both rules are deterministic.
	min := 0
	for i, s := range r.slow {
		if s.dur < r.slow[min].dur || (s.dur == r.slow[min].dur && s.id > r.slow[min].id) {
			min = i
		}
	}
	if b.dur > r.slow[min].dur {
		delete(r.kept, r.slow[min].id)
		r.slow[min] = b
		r.kept[b.id] = b
	}
}

// Spans returns every kept span of the operation traces in deterministic
// order (trace id, start time, span id).
func (r *Recorder) Spans() []Span { return r.spans(false) }

// Background returns the spans of the background traces, in the same order.
func (r *Recorder) Background() []Span { return r.spans(true) }

func (r *Recorder) spans(background bool) []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for _, b := range r.kept {
		if b.background == background {
			out = append(out, b.spans...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return spanLess(out[i], out[j]) })
	return out
}

// KeptTraces returns the kept trace ids in ascending order.
func (r *Recorder) KeptTraces() []uint64 {
	if r == nil {
		return nil
	}
	ids := make([]uint64, 0, len(r.kept))
	for id := range r.kept {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sortSpans(s []Span) {
	sort.Slice(s, func(i, j int) bool { return spanLess(s[i], s[j]) })
}

// spanLess is the canonical span order: trace id, start time, span id.
func spanLess(a, b Span) bool {
	if a.Trace != b.Trace {
		return a.Trace < b.Trace
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}

// --- Chrome trace-event export ----------------------------------------------

// jsonEvent is one complete ("ph":"X") event in the Chrome trace format.
// Timestamps and durations are microseconds; we emit virtual nanoseconds at
// 3-digit precision so nothing is lost.
type jsonEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  float64  `json:"dur"`
	Pid  uint32   `json:"pid"`
	Tid  uint64   `json:"tid"`
	Args jsonArgs `json:"args"`
}

type jsonArgs struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
}

type jsonFile struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// WriteJSON exports the kept spans, operation and background traces alike, as
// Chrome trace-event JSON. The output is
// a deterministic function of the kept spans: same seed, same bytes.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return WriteJSON(w, append(r.Spans(), r.Background()...))
}

// WriteJSON exports spans (already or not yet sorted) in the Chrome
// trace-event format.
func WriteJSON(w io.Writer, spans []Span) error {
	sortSpans(spans)
	f := jsonFile{TraceEvents: make([]jsonEvent, 0, len(spans)), DisplayTimeUnit: "ns"}
	for _, s := range spans {
		f.TraceEvents = append(f.TraceEvents, jsonEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Pid:  uint32(s.Node),
			Tid:  s.Trace,
			Args: jsonArgs{Trace: s.Trace, Span: s.ID, Parent: s.Parent},
		})
	}
	b, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ParseJSON reads a trace file written by WriteJSON back into spans.
func ParseJSON(rd io.Reader) ([]Span, error) {
	var f jsonFile
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	spans := make([]Span, 0, len(f.TraceEvents))
	for i, e := range f.TraceEvents {
		if e.Ph != "X" {
			return nil, fmt.Errorf("event %d: phase %q, want %q", i, e.Ph, "X")
		}
		if e.Name == "" || e.Cat == "" {
			return nil, fmt.Errorf("event %d: empty name or cat", i)
		}
		if e.Args.Trace == 0 || e.Args.Span == 0 {
			return nil, fmt.Errorf("event %d: zero trace or span id", i)
		}
		start := env.Time(math.Round(e.Ts * 1e3))
		spans = append(spans, Span{
			Trace:  e.Args.Trace,
			ID:     e.Args.Span,
			Parent: e.Args.Parent,
			Name:   e.Name,
			Cat:    e.Cat,
			Node:   env.NodeID(e.Pid),
			Start:  start,
			End:    start + env.Duration(math.Round(e.Dur*1e3)),
		})
	}
	return spans, nil
}

// Validate checks structural well-formedness: spans non-empty, ids unique,
// and every non-root parent resolvable within its own trace (no orphan
// spans). It is the shape check TestGate and `fsctl trace -validate` run.
func Validate(spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans")
	}
	byTrace := make(map[uint64]map[uint64]bool)
	seen := make(map[uint64]bool)
	for _, s := range spans {
		if seen[s.ID] {
			return fmt.Errorf("trace %d: duplicate span id %d", s.Trace, s.ID)
		}
		seen[s.ID] = true
		m := byTrace[s.Trace]
		if m == nil {
			m = make(map[uint64]bool)
			byTrace[s.Trace] = m
		}
		m[s.ID] = true
		if s.End < s.Start {
			return fmt.Errorf("trace %d span %d: negative duration", s.Trace, s.ID)
		}
	}
	for _, s := range spans {
		if s.Parent != 0 && !byTrace[s.Trace][s.Parent] {
			return fmt.Errorf("trace %d span %d (%s): orphan parent %d", s.Trace, s.ID, s.Name, s.Parent)
		}
	}
	return nil
}

// --- Critical-path summary ---------------------------------------------------

// Summary renders the critical-path breakdown of the kept traces.
func (r *Recorder) Summary(topN int) string {
	return Summarize(r.Spans(), topN)
}

// Summarize attributes each kept trace's virtual time to span names by
// self-time (a span's duration minus its children's) and renders the topN
// slowest traces, slowest first.
func Summarize(spans []Span, topN int) string {
	if len(spans) == 0 {
		return "trace: no spans kept\n"
	}
	byTrace := make(map[uint64][]Span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	type traceSum struct {
		id   uint64
		root Span
		self map[string]env.Duration // "cat:name" -> self time
		n    int
	}
	var sums []traceSum
	for id, ss := range byTrace {
		childDur := make(map[uint64]env.Duration)
		var root Span
		for _, s := range ss {
			if s.Parent == 0 {
				root = s
			} else {
				childDur[s.Parent] += s.Dur()
			}
		}
		ts := traceSum{id: id, root: root, self: make(map[string]env.Duration), n: len(ss)}
		for _, s := range ss {
			self := s.Dur() - childDur[s.ID]
			if self < 0 {
				self = 0
			}
			ts.self[s.Cat+":"+s.Name] += self
		}
		sums = append(sums, ts)
	}
	sort.Slice(sums, func(i, j int) bool {
		di, dj := sums[i].root.Dur(), sums[j].root.Dur()
		if di != dj {
			return di > dj
		}
		return sums[i].id < sums[j].id
	})
	if topN > 0 && len(sums) > topN {
		sums = sums[:topN]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical path of the %d slowest kept ops (virtual time)\n", len(sums))
	for _, ts := range sums {
		fmt.Fprintf(&b, "trace %d  %-16s %10.1fµs  (%d spans)\n",
			ts.id, ts.root.Name, float64(ts.root.Dur())/1e3, ts.n)
		type kv struct {
			name string
			d    env.Duration
		}
		var parts []kv
		for name, d := range ts.self {
			parts = append(parts, kv{name, d})
		}
		sort.Slice(parts, func(i, j int) bool {
			if parts[i].d != parts[j].d {
				return parts[i].d > parts[j].d
			}
			return parts[i].name < parts[j].name
		})
		for _, p := range parts {
			if p.d == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-28s %10.1fµs\n", p.name, float64(p.d)/1e3)
		}
	}
	return b.String()
}
