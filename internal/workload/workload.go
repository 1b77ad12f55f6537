// Package workload generates the namespaces, operation mixes, skew patterns
// and bursts of the paper's evaluation (§7), and drives them against any
// system implementing fsapi.System under the simulated environment.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/stats"
	"switchfs/internal/wire"
)

// Op is one operation: what a generator draws, what Apply issues, and what
// the checking harnesses record and model.
type Op struct {
	Kind core.Op
	Path string
	// Path2 is the rename/link destination.
	Path2 string
	// Perm parameterizes chmod, and create/mkdir on the surfaces that take
	// one (zero means the server default for create/mkdir, and literal zero
	// for chmod, matching the servers).
	Perm core.Perm
	// Chunk addresses a data access (OpRead, OpWrite). Through Apply,
	// Chunk.File is the shard that spreads accesses over the data nodes;
	// the checked runs address the chunk on its primary data node.
	Chunk wire.ChunkKey
	// Bytes sizes a data access through Apply; zero issues none (the
	// metadata-only replays of a data mix).
	Bytes int64
}

func (o Op) String() string {
	switch o.Kind {
	case core.OpRename, core.OpLink:
		return fmt.Sprintf("%s %s -> %s", o.Kind, o.Path, o.Path2)
	case core.OpCreate, core.OpMkdir, core.OpChmod:
		return fmt.Sprintf("%s %s %#o", o.Kind, o.Path, o.Perm)
	case core.OpRead, core.OpWrite:
		return fmt.Sprintf("%s chunk %d/%d", o.Kind, o.Chunk.File, o.Chunk.Stripe)
	default:
		return fmt.Sprintf("%s %s", o.Kind, o.Path)
	}
}

// Outcome is an operation's observed (or modeled) result. Only the fields
// meaningful for the op kind are set: Attr for stat/open/close/statdir,
// Entries for readdir, Version for chunk reads and writes.
type Outcome struct {
	Err     error
	Attr    core.Attr
	Entries []core.DirEntry
	// Version is the chunk version the primary acknowledged (write) or
	// reported (read; 0 for a never-written chunk).
	Version uint64
}

func (o Outcome) String() string {
	if o.Err != nil {
		return o.Err.Error()
	}
	var b strings.Builder
	b.WriteString("ok")
	if o.Attr.Type != 0 {
		fmt.Fprintf(&b, " %s perm=%#o size=%d", o.Attr.Type, o.Attr.Perm, o.Attr.Size)
	}
	if o.Entries != nil {
		names := make([]string, len(o.Entries))
		for i, e := range o.Entries {
			names[i] = fmt.Sprintf("%s(%s)", e.Name, e.Type)
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(names, " "))
	}
	if o.Version != 0 {
		fmt.Fprintf(&b, " v%d", o.Version)
	}
	return b.String()
}

// SortEntries canonicalizes a listing (servers scan in key order, which is
// name order, but the model and diff comparisons never rely on it).
func SortEntries(es []core.DirEntry) []core.DirEntry {
	out := append([]core.DirEntry(nil), es...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gen produces the i-th operation of a worker.
type Gen func(rnd *rand.Rand, worker, i int) Op

// smSource is a splitmix64 rand.Source64: statistically strong for workload
// draws and ~free to seed, unlike the default source's 607-word warm-up
// (which dominated the profile of figure harnesses that stand up thousands
// of short-lived workers).
type smSource struct{ s uint64 }

func (g *smSource) Uint64() uint64 {
	g.s += 0x9E3779B97F4A7C15
	x := g.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
func (g *smSource) Int63() int64    { return int64(g.Uint64() >> 1) }
func (g *smSource) Seed(seed int64) { g.s = uint64(seed) }

// newRand builds a worker's deterministic generator.
func newRand(seed int64) *rand.Rand { return rand.New(&smSource{s: uint64(seed)}) }

// pathf assembles "<dir>/<parts...>" without fmt: path generation runs once
// per simulated operation and sat high in the allocation profile.
func pathf(dir string, parts ...any) string {
	b := make([]byte, 0, len(dir)+24)
	b = append(b, dir...)
	b = append(b, '/')
	for _, part := range parts {
		switch v := part.(type) {
		case string:
			b = append(b, v...)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return string(b)
}

// RunCfg configures a run: Workers client sessions, each issuing
// OpsPerWorker operations. With Think zero the run is a closed loop — each
// session issues its next operation the moment the last returns. Otherwise a
// session thinks for Think of virtual time between operations and costs no
// worker while thinking: its continuation waits on the simulator's event
// queue (env.SpawnAfter), so the population can scale to millions while the
// worker pool stays at the in-flight level (roughly Workers × service-time /
// Think). Session starts are then staggered across one think window so
// arrivals spread evenly.
type RunCfg struct {
	// Workers is the number of concurrent sessions (the paper stresses
	// servers with up to 512 in flight).
	Workers int
	// OpsPerWorker bounds each session's operation count.
	OpsPerWorker int
	// Clients is the client-node pool to spread sessions over.
	Clients int
	// Think is the virtual idle time between a session's operations.
	Think env.Duration
	// Seed makes generation deterministic.
	Seed int64
	Gen  Gen
}

// Result aggregates a run.
type Result struct {
	Ops  int
	Errs int
	// Elapsed is the run window (first issue to last completion); Drained
	// additionally covers background work the operations deferred
	// (change-log pushes and aggregations). Sustained throughput uses
	// Drained: deferred work is still work the servers must absorb.
	Elapsed env.Duration
	Drained env.Duration
	// Lat holds per-op-class latency histograms (nanoseconds).
	Lat map[core.Op]*stats.Hist
	// All merges every class.
	All *stats.Hist
	// Workers is the simulator's peak pooled-worker count — the witness that
	// thinking sessions were not holding worker stacks.
	Workers int
}

// ThroughputOps returns sustained ops/second of virtual time: operations
// that returned no error over the drained window, so systems cannot look
// fast by letting deferred work pile up unapplied, or by failing fast.
func (r Result) ThroughputOps() float64 {
	d := r.Drained
	if d < r.Elapsed {
		d = r.Elapsed
	}
	if d <= 0 {
		return 0
	}
	return float64(r.Ops-r.Errs) / (float64(d) / 1e9)
}

// Run executes the workload to completion on the simulator and returns
// aggregate results. The caller owns cluster construction and preloading.
func Run(sim *env.Sim, sys fsapi.System, cfg RunCfg) Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	res := Result{Lat: make(map[core.Op]*stats.Hist), All: &stats.Hist{}}
	start := sim.Now()
	var end, drainedAt env.Time
	done := 0
	allDone := env.NewFuture()
	for w := 0; w < cfg.Workers; w++ {
		w := w
		ci := w % cfg.Clients
		fs := sys.ClientFS(ci)
		rnd := newRand(cfg.Seed + int64(w)*7919)
		i := 0
		// step issues the session's operations from i on; a thinking
		// session re-queues itself after each one.
		var step func(p *env.Proc)
		step = func(p *env.Proc) {
			for i < cfg.OpsPerWorker {
				op := cfg.Gen(rnd, w, i)
				t0 := p.Now()
				err := Apply(p, fs, op).Err
				dt := float64(p.Now() - t0)
				h := res.Lat[op.Kind]
				if h == nil {
					h = &stats.Hist{}
					res.Lat[op.Kind] = h
				}
				h.Add(dt)
				res.All.Add(dt)
				res.Ops++
				if err != nil {
					res.Errs++
				}
				if i++; cfg.Think > 0 && i < cfg.OpsPerWorker {
					sim.SpawnAfter(p.Self(), cfg.Think, step)
					return
				}
			}
			done++
			if t := p.Now(); t > end {
				end = t
			}
			if done == cfg.Workers {
				allDone.Complete(nil)
			}
		}
		if cfg.Think <= 0 {
			sys.SpawnClient(ci, step)
		} else {
			sim.After(env.Duration(w)*cfg.Think/env.Duration(cfg.Workers), func() { sys.SpawnClient(ci, step) })
		}
	}
	// The drainer immediately flushes deferred work when the load ends, so
	// the sustained window excludes timer dead-air but includes the backlog.
	sys.SpawnClient(0, func(p *env.Proc) {
		allDone.Wait(p)
		sys.Drain(p)
		drainedAt = p.Now()
	})
	sim.Run()
	if done != cfg.Workers {
		panic(fmt.Sprintf("workload: only %d/%d workers finished (simulation deadlock?)", done, cfg.Workers))
	}
	res.Elapsed = end - start
	res.Drained = drainedAt - start
	res.Workers = sim.WorkerCount() //detlint:ignore dettaint -- pool high-water is a pure function of the seed under the token-passing scheduler (TestGate holds the scale figure's workers column to it)
	return res
}

// Apply executes one operation against an FS and returns what it observed.
// It is the one dispatch from an Op to the fsapi surface: create and mkdir
// take the system's default permissions, and a data access lands on shard
// Chunk.File.
func Apply(p *env.Proc, fs fsapi.FS, op Op) Outcome {
	var out Outcome
	switch op.Kind {
	case core.OpCreate:
		out.Err = fs.Create(p, op.Path)
	case core.OpDelete:
		out.Err = fs.Delete(p, op.Path)
	case core.OpMkdir:
		out.Err = fs.Mkdir(p, op.Path)
	case core.OpRmdir:
		out.Err = fs.Rmdir(p, op.Path)
	case core.OpStat:
		out.Attr, out.Err = fs.Stat(p, op.Path)
	case core.OpOpen:
		out.Attr, out.Err = fs.Open(p, op.Path)
	case core.OpClose:
		out.Err = fs.Close(p, op.Path)
	case core.OpChmod:
		out.Err = fs.Chmod(p, op.Path, op.Perm)
	case core.OpStatDir:
		out.Attr, out.Err = fs.StatDir(p, op.Path)
	case core.OpReadDir:
		out.Entries, out.Err = fs.ReadDir(p, op.Path)
	case core.OpRename:
		out.Err = fs.Rename(p, op.Path, op.Path2)
	case core.OpLink:
		out.Err = fs.Link(p, op.Path, op.Path2)
	case core.OpRead, core.OpWrite:
		if op.Bytes > 0 {
			out.Err = fs.Data(p, int(op.Chunk.File), op.Kind == core.OpWrite, op.Bytes)
		}
	default:
		out.Err = core.ErrInvalid
	}
	return out
}

// Program materializes the deterministic operation lists Run would issue:
// one per worker, drawn with the same per-worker seeding (seed + w*7919).
// Checking harnesses replay programs op by op (recording each result)
// instead of running the closed loop; the same gen and seed always produce
// the same program. Stateful generators (Mix.Gen) accumulate per-worker
// state across draws — pass a freshly-built gen, not one that has already
// been sampled.
func Program(gen Gen, seed int64, workers, opsPerWorker int) [][]Op {
	prog := make([][]Op, workers)
	for w := range prog {
		rnd := newRand(seed + int64(w)*7919)
		ops := make([]Op, opsPerWorker)
		for i := range ops {
			ops[i] = gen(rnd, w, i)
		}
		prog[w] = ops
	}
	return prog
}

// --- namespaces ---------------------------------------------------------------

// Namespace describes the preloaded directory tree.
type Namespace struct {
	Dirs        []string
	FilesPerDir int
}

// SingleDir is the "a single very large directory" namespace (§7.2.1): files
// in one shared directory.
func SingleDir(files int) Namespace {
	return Namespace{Dirs: []string{"/shared"}, FilesPerDir: files}
}

// MultiDir is the "multiple directories" namespace: files uniformly spread
// over n directories.
func MultiDir(n, filesPerDir int) Namespace {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("/dir%04d", i)
	}
	return Namespace{Dirs: dirs, FilesPerDir: filesPerDir}
}

// Preload installs the namespace into a system.
func (ns Namespace) Preload(sys fsapi.System) {
	sys.Preload(ns.Dirs, ns.FilesPerDir)
}

// UniformFiles generates op over uniformly random existing files.
func (ns Namespace) UniformFiles(op core.Op) Gen {
	return func(rnd *rand.Rand, w, i int) Op {
		d := ns.Dirs[rnd.Intn(len(ns.Dirs))]
		f := rnd.Intn(ns.FilesPerDir)
		return Op{Kind: op, Path: pathf(d, "f", f)}
	}
}

// FreshFiles generates create (or delete of previously created) paths with
// per-worker-unique names, spread uniformly over the namespace's directories.
func (ns Namespace) FreshFiles(op core.Op) Gen {
	return func(rnd *rand.Rand, w, i int) Op {
		d := ns.Dirs[rnd.Intn(len(ns.Dirs))]
		return Op{Kind: op, Path: pathf(d, "w", w, "-n", i)}
	}
}

// CreateThenDelete alternates create and delete of per-worker names so the
// namespace does not grow (used for sustained delete throughput).
func (ns Namespace) CreateThenDelete() Gen {
	return func(rnd *rand.Rand, w, i int) Op {
		d := ns.Dirs[w%len(ns.Dirs)]
		path := pathf(d, "w", w, "-n", i/2)
		if i%2 == 0 {
			return Op{Kind: core.OpCreate, Path: path}
		}
		return Op{Kind: core.OpDelete, Path: path}
	}
}

// FreshDirs generates mkdir (or rmdir alternation) of per-worker names.
func (ns Namespace) FreshDirs(op core.Op) Gen {
	return func(rnd *rand.Rand, w, i int) Op {
		d := ns.Dirs[rnd.Intn(len(ns.Dirs))]
		return Op{Kind: op, Path: pathf(d, "sub-w", w, "-n", i)}
	}
}

// MkdirThenRmdir alternates mkdir/rmdir so directories do not accumulate.
func (ns Namespace) MkdirThenRmdir() Gen {
	return func(rnd *rand.Rand, w, i int) Op {
		d := ns.Dirs[w%len(ns.Dirs)]
		path := pathf(d, "sub-w", w, "-n", i/2)
		if i%2 == 0 {
			return Op{Kind: core.OpMkdir, Path: path}
		}
		return Op{Kind: core.OpRmdir, Path: path}
	}
}

// StatDirs generates statdir over the namespace's directories.
func (ns Namespace) StatDirs() Gen {
	return func(rnd *rand.Rand, w, i int) Op {
		return Op{Kind: core.OpStatDir, Path: ns.Dirs[rnd.Intn(len(ns.Dirs))]}
	}
}

// Bursts generates runs of `burst` creates in one directory before moving to
// the next — the temporal-load-imbalance model of §7.4. The whole client
// population (workers in-flight requests) advances through a shared burst
// sequence, so a burst larger than the in-flight level concentrates every
// outstanding request on one directory at a time.
func (ns Namespace) Bursts(burst, workers int) Gen {
	if workers <= 0 {
		workers = 1
	}
	return func(rnd *rand.Rand, w, i int) Op {
		global := i*workers + w
		dirIdx := (global / burst) % len(ns.Dirs)
		return Op{Kind: core.OpCreate, Path: pathf(ns.Dirs[dirIdx], "b-w", w, "-n", i)}
	}
}

// Zipfian picks directories with an 80/20-style skew (§7.6: 80% of the
// operations in 20% of the directories).
func (ns Namespace) zipfDir(rnd *rand.Rand) string {
	if rnd.Float64() < 0.8 {
		hot := len(ns.Dirs) / 5
		if hot == 0 {
			hot = 1
		}
		return ns.Dirs[rnd.Intn(hot)]
	}
	return ns.Dirs[rnd.Intn(len(ns.Dirs))]
}
