package workload

import (
	"math/rand"
	"strings"
	"testing"

	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/stats"
)

func TestNamespaces(t *testing.T) {
	ns := MultiDir(4, 10)
	if len(ns.Dirs) != 4 || ns.Dirs[0] != "/dir0000" {
		t.Fatalf("dirs %v", ns.Dirs)
	}
	one := SingleDir(100)
	if len(one.Dirs) != 1 || one.FilesPerDir != 100 {
		t.Fatalf("single dir: %+v", one)
	}
}

func TestUniformFilesTargetsExisting(t *testing.T) {
	ns := MultiDir(4, 8)
	gen := ns.UniformFiles(core.OpStat)
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		call := gen(rnd, 0, i)
		if call.Kind != core.OpStat {
			t.Fatalf("op %v", call.Kind)
		}
		if !strings.HasPrefix(call.Path, "/dir") || !strings.Contains(call.Path, "/f") {
			t.Fatalf("path %q", call.Path)
		}
	}
}

func TestFreshFilesUnique(t *testing.T) {
	ns := MultiDir(2, 1)
	gen := ns.FreshFiles(core.OpCreate)
	rnd := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for w := 0; w < 3; w++ {
		for i := 0; i < 50; i++ {
			p := gen(rnd, w, i).Path
			if seen[p] {
				t.Fatalf("duplicate fresh path %q", p)
			}
			seen[p] = true
		}
	}
}

func TestCreateThenDeletePairs(t *testing.T) {
	ns := MultiDir(2, 1)
	gen := ns.CreateThenDelete()
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i += 2 {
		c := gen(rnd, 1, i)
		d := gen(rnd, 1, i+1)
		if c.Kind != core.OpCreate || d.Kind != core.OpDelete || c.Path != d.Path {
			t.Fatalf("pair mismatch: %+v %+v", c, d)
		}
	}
}

func TestBurstsConcentrate(t *testing.T) {
	ns := MultiDir(8, 1)
	const workers = 16
	gen := ns.Bursts(64, workers)
	rnd := rand.New(rand.NewSource(1))
	// Within one burst window every worker targets the same directory.
	dirOf := func(path string) string { return path[:strings.LastIndex(path, "/")] }
	d0 := dirOf(gen(rnd, 0, 0).Path)
	for w := 1; w < workers; w++ {
		if d := dirOf(gen(rnd, w, 0).Path); d != d0 {
			t.Fatalf("burst not concentrated: worker %d in %s, worker 0 in %s", w, d, d0)
		}
	}
	// Later windows move on (worker 0 at i=4 → global op 64, next window).
	if d := dirOf(gen(rnd, 0, 4).Path); d == d0 {
		t.Fatal("burst never advanced to the next directory")
	}
}

func TestMixRatios(t *testing.T) {
	ns := MultiDir(8, 16)
	gen := PanguMix().Gen(ns, false)
	rnd := rand.New(rand.NewSource(2))
	counts := map[core.Op]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[gen(rnd, 0, i).Kind]++
	}
	frac := func(op core.Op) float64 { return float64(counts[op]) / n }
	// open+close ≈ 52.6%; create+delete+rename ≈ 30.8% (deletes/renames can
	// degrade to creates during warm-up, so compare the sum).
	if f := frac(core.OpOpen) + frac(core.OpClose); f < 0.45 || f > 0.60 {
		t.Errorf("open+close fraction %.3f", f)
	}
	if f := frac(core.OpCreate) + frac(core.OpDelete) + frac(core.OpRename); f < 0.24 || f > 0.38 {
		t.Errorf("update fraction %.3f", f)
	}
	if counts[core.OpReadDir] == 0 || counts[core.OpStat] == 0 {
		t.Error("mix missing readdir/stat")
	}
}

// TestProgramDeterministic pins Program: the same gen shape and seed always
// materialize identical per-worker op lists (the replay contract of the
// checking harnesses), and they match what Run's workers would draw.
func TestProgramDeterministic(t *testing.T) {
	ns := MultiDir(4, 8)
	mixes := map[string]func() Gen{
		"pangu":     func() Gen { return PanguMix().Gen(ns, false) },
		"cnn":       func() Gen { return CNNTrainingMix(4096).Gen(ns, false) },
		"thumbnail": func() Gen { return ThumbnailMix(4096).Gen(ns, false) },
		"uniform":   func() Gen { return ns.UniformFiles(core.OpStat) },
	}
	for name, mk := range mixes {
		// Stateful mix gens must be rebuilt per materialization; identical
		// fresh gens must agree draw for draw.
		a := Program(mk(), 11, 3, 50)
		b := Program(mk(), 11, 3, 50)
		if len(a) != 3 || len(a[0]) != 50 {
			t.Fatalf("%s: program shape %dx%d", name, len(a), len(a[0]))
		}
		for w := range a {
			for i := range a[w] {
				if a[w][i] != b[w][i] {
					t.Fatalf("%s: worker %d op %d differs: %+v vs %+v",
						name, w, i, a[w][i], b[w][i])
				}
			}
		}
		c := Program(mk(), 12, 3, 50)
		same := true
		for w := range a {
			for i := range a[w] {
				if a[w][i] != c[w][i] {
					same = false
				}
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical programs", name)
		}
	}
}

// mixFractions draws n ops from a fresh gen and returns per-op fractions.
func mixFractions(gen Gen, n int) map[core.Op]float64 {
	rnd := rand.New(rand.NewSource(2))
	counts := map[core.Op]int{}
	for i := 0; i < n; i++ {
		counts[gen(rnd, 0, i).Kind]++
	}
	out := make(map[core.Op]float64, len(counts))
	for op, c := range counts {
		out[op] = float64(c) / float64(n)
	}
	return out
}

// TestCNNTrainingMixRatios sanity-checks the CV-training trace shape:
// open/close/stat dominate, data accesses carry the configured size.
func TestCNNTrainingMixRatios(t *testing.T) {
	ns := MultiDir(8, 16)
	frac := mixFractions(CNNTrainingMix(4096).Gen(ns, false), 20000)
	if f := frac[core.OpOpen] + frac[core.OpClose] + frac[core.OpStat]; f < 0.55 || f > 0.75 {
		t.Errorf("open+close+stat fraction %.3f, want ~0.64", f)
	}
	if f := frac[core.OpRead]; f < 0.10 || f > 0.19 {
		t.Errorf("read fraction %.3f, want ~0.142", f)
	}
	if f := frac[core.OpWrite]; f < 0.04 || f > 0.11 {
		t.Errorf("write fraction %.3f, want ~0.071", f)
	}
	// Data sizes ride on the data-class draws.
	gen := CNNTrainingMix(4096).Gen(ns, false)
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		call := gen(rnd, 0, i)
		if (call.Kind == core.OpRead || call.Kind == core.OpWrite) && call.Bytes != 4096 {
			t.Fatalf("data op with %d bytes, want 4096", call.Bytes)
		}
	}
}

// TestThumbnailMixRatios sanity-checks the thumbnail-generation trace shape.
func TestThumbnailMixRatios(t *testing.T) {
	ns := MultiDir(8, 16)
	frac := mixFractions(ThumbnailMix(8192).Gen(ns, false), 20000)
	if f := frac[core.OpOpen] + frac[core.OpClose] + frac[core.OpStat]; f < 0.57 || f > 0.75 {
		t.Errorf("open+close+stat fraction %.3f, want ~0.66", f)
	}
	if f := frac[core.OpCreate]; f < 0.07 || f > 0.16 {
		t.Errorf("create fraction %.3f, want ~0.11", f)
	}
	if f := frac[core.OpRead]; f < 0.08 || f > 0.17 {
		t.Errorf("read fraction %.3f, want ~0.122", f)
	}
	if frac[core.OpRmdir] != 0 {
		t.Error("thumbnail mix has no rmdir class")
	}
}

func TestMixDeleteTargetsOwnCreates(t *testing.T) {
	ns := MultiDir(2, 4)
	gen := CNNTrainingMix(0).Gen(ns, false)
	rnd := rand.New(rand.NewSource(3))
	created := map[string]bool{}
	for i := 0; i < 5000; i++ {
		call := gen(rnd, 0, i)
		switch call.Kind {
		case core.OpCreate:
			created[call.Path] = true
		case core.OpDelete:
			if !created[call.Path] {
				t.Fatalf("delete of never-created path %q", call.Path)
			}
			delete(created, call.Path)
		}
	}
}

func TestSkewConcentrates(t *testing.T) {
	ns := MultiDir(10, 4)
	gen := PanguMix().Gen(ns, true)
	rnd := rand.New(rand.NewSource(4))
	hot := 0
	total := 0
	for i := 0; i < 10000; i++ {
		call := gen(rnd, 0, i)
		if !strings.HasPrefix(call.Path, "/dir") {
			continue
		}
		total++
		// hottest 20%: dirs 0 and 1 of 10
		if strings.HasPrefix(call.Path, "/dir0000") || strings.HasPrefix(call.Path, "/dir0001") {
			hot++
		}
	}
	if f := float64(hot) / float64(total); f < 0.6 {
		t.Errorf("hot-directory fraction %.2f, want ≥ 0.6 (80/20 skew)", f)
	}
}

func TestRunCollectsLatencies(t *testing.T) {
	sim := env.NewSim(5)
	defer sim.Shutdown()
	c := cluster.New(sim, cluster.Options{Servers: 4, Clients: 2,
		Costs: env.DefaultCosts(), SwitchIndexBits: 10})
	ns := MultiDir(4, 8)
	ns.Preload(c)
	res := Run(sim, c, RunCfg{
		Workers:      8,
		OpsPerWorker: 10,
		Clients:      2,
		Seed:         1,
		Gen:          ns.UniformFiles(core.OpStat),
	})
	if res.Ops != 80 || res.Errs != 0 {
		t.Fatalf("ops=%d errs=%d", res.Ops, res.Errs)
	}
	if res.All.N() != 80 {
		t.Fatalf("latency samples %d", res.All.N())
	}
	if res.ThroughputOps() <= 0 || res.Elapsed <= 0 {
		t.Fatal("throughput/elapsed not recorded")
	}
	if res.Drained < res.Elapsed {
		t.Fatalf("drained %d < elapsed %d", res.Drained, res.Elapsed)
	}
	if res.Lat[core.OpStat] == nil || res.Lat[core.OpStat].N() != 80 {
		t.Fatal("per-op histogram missing")
	}
}

// TestThroughputCountsOnlySuccesses: a failed operation is no throughput.
// Every stat below names a path that was never created, so Ops counts each
// call, Errs each failure, and the run sustains zero operations a second.
func TestThroughputCountsOnlySuccesses(t *testing.T) {
	sim := env.NewSim(5)
	defer sim.Shutdown()
	c := cluster.New(sim, cluster.Options{Servers: 4, Clients: 2,
		Costs: env.DefaultCosts(), SwitchIndexBits: 10})
	ns := MultiDir(4, 8) // never preloaded
	res := Run(sim, c, RunCfg{
		Workers:      4,
		OpsPerWorker: 5,
		Clients:      2,
		Seed:         1,
		Gen:          ns.UniformFiles(core.OpStat),
	})
	if res.Ops != 20 || res.Errs != 20 || res.Elapsed <= 0 {
		t.Fatalf("ops=%d errs=%d elapsed=%d, want 20 failed stats", res.Ops, res.Errs, res.Elapsed)
	}
	if got := res.ThroughputOps(); got != 0 {
		t.Fatalf("throughput %.0f ops/s from operations that all failed", got)
	}
}

// TestRunThinkingSessionsHoldNoWorkers: with a think time, Run staggers the
// sessions across one think window and re-queues each between operations,
// so the worker pool stays at the in-flight level, far below the session
// count, while every operation still completes.
func TestRunThinkingSessionsHoldNoWorkers(t *testing.T) {
	sim := env.NewSim(5)
	defer sim.Shutdown()
	c := cluster.New(sim, cluster.Options{Servers: 4, Clients: 16,
		Costs: env.DefaultCosts(), SwitchIndexBits: 10})
	ns := MultiDir(4, 8)
	ns.Preload(c)
	const sessions, ops = 400, 3
	res := Run(sim, c, RunCfg{
		Workers:      sessions,
		OpsPerWorker: ops,
		Clients:      16,
		Think:        10 * env.Millisecond,
		Seed:         1,
		Gen:          ns.UniformFiles(core.OpStat),
	})
	if res.Ops != sessions*ops || res.Errs != 0 || res.All.N() != sessions*ops {
		t.Fatalf("ops=%d errs=%d samples=%d, want %d ops", res.Ops, res.Errs, res.All.N(), sessions*ops)
	}
	// Three operations two think windows apart, the first staggered over one.
	if res.Elapsed < 2*10*env.Millisecond {
		t.Fatalf("elapsed %v: sessions did not think between operations", res.Elapsed)
	}
	if res.Workers >= sessions/4 {
		t.Fatalf("%d pooled workers for %d thinking sessions", res.Workers, sessions)
	}
	t.Logf("%d thinking sessions on %d pooled workers", sessions, res.Workers)
}

func TestHistPercentiles(t *testing.T) {
	var h stats.Hist
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.Percentile(0.5) != 50 || h.Percentile(0.99) != 99 || h.Max() != 100 {
		t.Fatalf("p50=%v p99=%v max=%v", h.Percentile(0.5), h.Percentile(0.99), h.Max())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean=%v", h.Mean())
	}
	var h2 stats.Hist
	h2.Add(1000)
	h.Merge(&h2)
	if h.Max() != 1000 || h.N() != 101 {
		t.Fatal("merge failed")
	}
}
