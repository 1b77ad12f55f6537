package trace

import (
	"bytes"
	"fmt"
	"testing"

	"switchfs/internal/env"
)

// runSpans drives fn on a one-node sim and returns the recorder.
func runSpans(seed int64, cfg Config, fn func(p *env.Proc, r *Recorder)) *Recorder {
	r := New(cfg)
	s := env.NewSim(seed)
	defer s.Shutdown()
	s.AddNode(1, env.NodeConfig{})
	s.Spawn(1, func(p *env.Proc) { fn(p, r) })
	s.Run()
	return r
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	s := env.NewSim(1)
	defer s.Shutdown()
	s.AddNode(1, env.NodeConfig{})
	s.Spawn(1, func(p *env.Proc) {
		h := r.StartRoot(p, "op", "t")
		h2 := r.Start(p, "child", "t")
		h3 := r.StartAuto(p, "auto", "t")
		h3.End()
		h2.End()
		h.End()
		r.Flag(1, "x")
	})
	s.Run()
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder returned spans: %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

func TestTailSamplingKeepsSlowestAndFlagged(t *testing.T) {
	// 10 ops with durations 1..10µs, Keep=3 → 8,9,10µs survive; op 1 (the
	// fastest) is flagged and must survive regardless.
	r := runSpans(1, Config{Keep: 3}, func(p *env.Proc, r *Recorder) {
		for i := 1; i <= 10; i++ {
			h := r.StartRoot(p, fmt.Sprintf("op%d", i), "t")
			if i == 1 {
				r.Flag(h.TraceID(), "taint")
			}
			p.Sleep(env.Duration(i) * env.Microsecond)
			h.End()
		}
	})
	kept := r.KeptTraces()
	if len(kept) != 4 {
		t.Fatalf("kept %d traces (%v), want 4 (3 slowest + 1 flagged)", len(kept), kept)
	}
	names := map[string]bool{}
	for _, s := range r.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"op1", "op8", "op9", "op10"} {
		if !names[want] {
			t.Errorf("trace %s not kept (kept: %v)", want, names)
		}
	}
}

func TestSpanTreeNesting(t *testing.T) {
	// Start() nests under the ambient context and End() restores it.
	r := runSpans(1, Config{}, func(p *env.Proc, r *Recorder) {
		root := r.StartRoot(p, "root", "t")
		a := r.Start(p, "a", "t")
		aa := r.Start(p, "aa", "t")
		aa.End()
		a.End()
		b := r.Start(p, "b", "t")
		b.End()
		root.End()
	})
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root has parent %d", byName["root"].Parent)
	}
	if byName["a"].Parent != byName["root"].ID {
		t.Errorf("a.parent=%d, want root %d", byName["a"].Parent, byName["root"].ID)
	}
	if byName["aa"].Parent != byName["a"].ID {
		t.Errorf("aa.parent=%d, want a %d", byName["aa"].Parent, byName["a"].ID)
	}
	if byName["b"].Parent != byName["root"].ID {
		t.Errorf("b.parent=%d, want root %d (sibling must not nest under a)", byName["b"].Parent, byName["root"].ID)
	}
	if err := Validate(spans); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestStartSpanInvalidCtxRecordsNothing(t *testing.T) {
	r := runSpans(1, Config{}, func(p *env.Proc, r *Recorder) {
		h := r.StartSpan(p, env.TraceCtx{}, "orphan", "t")
		h.End()
		// Start with no ambient context is equally a no-op: this is what
		// keeps spawned background procs (pushes, redrives) span-free.
		h2 := r.Start(p, "ambientless", "t")
		h2.End()
	})
	if got := len(r.Spans()); got != 0 {
		t.Fatalf("invalid-context spans recorded: %d", got)
	}
}

func TestJSONRoundTripAndDeterminism(t *testing.T) {
	gen := func() *Recorder {
		return runSpans(7, Config{Keep: 8}, func(p *env.Proc, r *Recorder) {
			for i := 0; i < 12; i++ {
				h := r.StartRoot(p, fmt.Sprintf("op%d", i), "client")
				c := r.Start(p, "child", "server")
				p.Sleep(env.Duration(i%5+1) * env.Microsecond)
				c.End()
				h.End()
			}
		})
	}
	var b1, b2 bytes.Buffer
	if err := gen().WriteJSON(&b1); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := gen().WriteJSON(&b2); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same-seed trace exports differ byte-for-byte")
	}

	spans, err := ParseJSON(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if err := Validate(spans); err != nil {
		t.Fatalf("Validate(round-trip): %v", err)
	}
	want := gen().Spans()
	if len(spans) != len(want) {
		t.Fatalf("round-trip %d spans, want %d", len(spans), len(want))
	}
	for i := range spans {
		if spans[i] != want[i] {
			t.Fatalf("span %d changed in round-trip:\n got %+v\nwant %+v", i, spans[i], want[i])
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	if err := Validate(nil); err == nil {
		t.Error("Validate(empty) passed")
	}
	ok := []Span{
		{Trace: 1, ID: 1, Name: "r", Cat: "t", Start: 0, End: 10},
		{Trace: 1, ID: 2, Parent: 1, Name: "c", Cat: "t", Start: 1, End: 9},
	}
	if err := Validate(ok); err != nil {
		t.Errorf("Validate(ok): %v", err)
	}
	orphan := append(ok[:1:1], Span{Trace: 1, ID: 3, Parent: 99, Name: "o", Cat: "t"})
	if err := Validate(orphan); err == nil {
		t.Error("Validate missed the orphan parent")
	}
	dup := []Span{ok[0], ok[0]}
	if err := Validate(dup); err == nil {
		t.Error("Validate missed the duplicate span id")
	}
	crossTrace := append(ok[:1:1], Span{Trace: 2, ID: 4, Parent: 1, Name: "x", Cat: "t"})
	if err := Validate(crossTrace); err == nil {
		t.Error("Validate missed the cross-trace parent")
	}
}

func TestMaxActiveDropsDeterministically(t *testing.T) {
	r := runSpans(1, Config{Keep: 4}, func(p *env.Proc, r *Recorder) {
		// maxActive+1 overlapping roots: the last must be refused.
		hs := make([]*Handle, maxActive+1)
		for i := range hs {
			hs[i] = r.StartRoot(p, "op", "t")
		}
		if hs[maxActive] != nil {
			t.Error("the root past maxActive was traced")
		}
		for i := len(hs) - 1; i >= 0; i-- {
			hs[i].End()
		}
	})
	if r.DroppedTraces != 1 {
		t.Errorf("DroppedTraces=%d, want 1", r.DroppedTraces)
	}
	if got := len(r.KeptTraces()); got != 4 {
		t.Errorf("kept %d traces, want Keep's 4", got)
	}
}

// TestBackgroundTracesKeptApart: a background root is always kept, exported,
// and never counted among the operation traces — not by Spans, not by the
// tail sampler's budget.
func TestBackgroundTracesKeptApart(t *testing.T) {
	r := runSpans(1, Config{Keep: 1}, func(p *env.Proc, r *Recorder) {
		bg := r.StartBackground(p, "recover", "server")
		child := r.Start(p, "recover:redo", "server")
		p.Sleep(env.Microsecond)
		child.End()
		bg.End()
		for i := 1; i <= 3; i++ {
			h := r.StartRoot(p, fmt.Sprintf("op%d", i), "t")
			p.Sleep(env.Duration(i) * env.Microsecond)
			h.End()
		}
	})
	if ops := r.Spans(); len(ops) != 1 || ops[0].Name != "op3" {
		t.Fatalf("operation spans %v, want the slowest op alone", ops)
	}
	bg := r.Background()
	if len(bg) != 2 || bg[0].Name != "recover" || bg[1].Parent != bg[0].ID {
		t.Fatalf("background spans %v, want recover and its child", bg)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	exported, err := ParseJSON(&buf)
	if err != nil || len(exported) != 3 || Validate(exported) != nil {
		t.Fatalf("export holds %d spans (%v), want both traces, well-shaped", len(exported), err)
	}
}
