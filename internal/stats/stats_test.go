package stats

import (
	"math"
	"testing"
)

func TestCountersAddAndEqual(t *testing.T) {
	var a Counters
	a.Add(Counters{Ops: 3, PerServerOps: []uint64{1, 2}})
	a.Add(Counters{Ops: 2, Errs: 1, PerServerOps: []uint64{0, 1, 5}})
	want := Counters{Ops: 5, Errs: 1, PerServerOps: []uint64{1, 3, 5}}
	if !a.Equal(want) {
		t.Fatalf("got %+v, want %+v", a, want)
	}
	// Equality is exact: a per-server slice equals only the same slots, so
	// a row reporting zeros differs from one reporting none.
	if !(Counters{Ops: 1}).Equal(Counters{Ops: 1, PerServerOps: []uint64{}}) {
		t.Error("empty PerServerOps must equal nil")
	}
	if (Counters{Ops: 1}).Equal(Counters{Ops: 1, PerServerOps: []uint64{0, 0}}) {
		t.Error("zero-filled PerServerOps must not equal nil")
	}
	if (Counters{Ops: 1, PerServerOps: []uint64{0, 7}}).Equal(Counters{Ops: 1, PerServerOps: []uint64{0, 8}}) {
		t.Error("different PerServerOps must not be equal")
	}
	if !(Counters{}).IsZero() || !(Counters{PerServerOps: []uint64{0}}).IsZero() || (Counters{PerServerOps: []uint64{1}}).IsZero() {
		t.Error("IsZero misclassified")
	}
}

func TestCountersSubPerServer(t *testing.T) {
	cum := Counters{Ops: 10, PerServerOps: []uint64{6, 4}}
	prev := Counters{Ops: 4, PerServerOps: []uint64{3, 1}}
	d := cum.Sub(prev)
	if d.Ops != 6 || d.PerServerOps[0] != 3 || d.PerServerOps[1] != 3 {
		t.Fatalf("delta %+v", d)
	}
}

func TestHistExactBelowCap(t *testing.T) {
	var h Hist
	n := 1000 // well below HistCap: every sample retained, percentiles exact
	for i := 1; i <= n; i++ {
		h.Add(float64(i))
	}
	if h.N() != n || h.Retained() != n {
		t.Fatalf("n=%d retained=%d, want %d exact", h.N(), h.Retained(), n)
	}
	if got := h.Mean(); math.Abs(got-float64(n+1)/2) > 1e-9 {
		t.Errorf("mean=%v, want %v", got, float64(n+1)/2)
	}
	if got := h.Percentile(0.5); got != 500 {
		t.Errorf("p50=%v, want 500 (nearest-rank, exact below cap)", got)
	}
	if got := h.Percentile(0.99); got != 990 {
		t.Errorf("p99=%v, want 990", got)
	}
	if got := h.Max(); got != float64(n) {
		t.Errorf("max=%v, want %v", got, float64(n))
	}
}

func TestHistReservoirBoundedAndDeterministic(t *testing.T) {
	run := func() *Hist {
		h := &Hist{}
		for i := 0; i < HistCap+10_000; i++ {
			h.Add(float64(i % 7919))
		}
		return h
	}
	a, b := run(), run()
	if a.Retained() != HistCap {
		t.Fatalf("retained %d, want cap %d", a.Retained(), HistCap)
	}
	if a.N() != HistCap+10_000 {
		t.Fatalf("N=%d, want exact count %d", a.N(), HistCap+10_000)
	}
	if a.Mean() != b.Mean() || a.Percentile(0.5) != b.Percentile(0.5) ||
		a.Percentile(0.99) != b.Percentile(0.99) {
		t.Fatal("two identical runs retained different reservoirs (nondeterministic sampling)")
	}
}

func TestHistMergeKeepsExactCountAndSum(t *testing.T) {
	var a, b Hist
	for i := 0; i < 100; i++ {
		a.Add(1)
		b.Add(3)
	}
	a.Merge(&b)
	if a.N() != 200 {
		t.Fatalf("merged N=%d, want 200", a.N())
	}
	if got := a.Mean(); got != 2 {
		t.Fatalf("merged mean=%v, want 2", got)
	}
}
