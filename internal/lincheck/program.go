package lincheck

import (
	"fmt"
	"math/rand"
	"sort"

	"switchfs/internal/core"
	"switchfs/internal/workload"
)

// Program is a deterministic multi-client operation schedule: Ops[c] is
// client c's sequential op list. All clients draw from one small shared path
// pool, so creates, deletes, renames and reads collide on the same names —
// the workload-mix idea of internal/workload, compressed until every
// interleaving is interesting.
type Program struct {
	Ops [][]workload.Op
	// Paths is the sorted distinct path universe (the audit read set).
	Paths []string
	// Audit lists reads the post-run audit issues after its stat + readdir
	// over Paths (a directed program's statdir of the directory it exercised).
	Audit []workload.Op
}

// opWeight mirrors a mix entry: an op kind and its draw weight.
type opWeight struct {
	kind   core.Op
	weight int
}

// Mix is a program's op mix: the op kinds it draws and their weights.
type Mix []opWeight

// AdversarialMix is mutation-heavy, with every two-path and directory op
// represented (PanguMix-style shape, compressed onto a tiny namespace).
var AdversarialMix = Mix{
	{core.OpCreate, 16},
	{core.OpMkdir, 14},
	{core.OpDelete, 10},
	{core.OpRmdir, 8},
	{core.OpStat, 8},
	{core.OpOpen, 3},
	{core.OpClose, 2},
	{core.OpChmod, 6},
	{core.OpStatDir, 5},
	{core.OpReadDir, 7},
	{core.OpRename, 12},
	{core.OpLink, 7},
}

// TwoPathMix is rename- and link-heavy — 54 of 100 draws are two-path
// operations — with just enough creates and mkdirs for them to find sources.
// Run with many clients it keeps several transactions at the coordinator at
// once: one being decided while the next prepares.
var TwoPathMix = Mix{
	{core.OpRename, 36},
	{core.OpLink, 18},
	{core.OpCreate, 18},
	{core.OpMkdir, 12},
	{core.OpDelete, 5},
	{core.OpReadDir, 5},
	{core.OpStatDir, 3},
	{core.OpStat, 3},
}

// chmodPerms is the perm pool for chmod draws (create/mkdir use the server
// defaults so sequential systems with and without create-perm plumbing stay
// comparable).
var chmodPerms = []core.Perm{0o600, 0o640, 0o700, 0o755}

// GenProgram builds the deterministic program for a seed: `clients`
// sequential lists of `opsPerClient` ops over a pool of ~10 colliding paths
// up to three components deep, drawn from mix. The same seed and mix always
// yield the same program.
func GenProgram(seed int64, clients, opsPerClient int, mix Mix) Program {
	rnd := rand.New(rand.NewSource(seed*0x9E3779B9 + 1))

	// Path pool: two root names, each with nested children — collisions by
	// construction, nesting so resolution errors (ENOTDIR/ENOENT on
	// intermediate components) and directory renames are reachable.
	pool := []string{
		"/a", "/b",
		"/a/x", "/a/y", "/b/x",
		"/a/x/t", "/a/x/u", "/b/x/t",
	}
	// Two seed-dependent extras keep different seeds exploring different
	// shapes without growing the audit set.
	extras := []string{"/c", "/a/z", "/b/y", "/c/x", "/a/y/t", "/b/x/u"}
	for _, i := range rnd.Perm(len(extras))[:2] {
		pool = append(pool, extras[i])
	}

	total := 0
	for _, w := range mix {
		total += w.weight
	}
	pick := func() core.Op {
		x := rnd.Intn(total)
		for _, w := range mix {
			if x < w.weight {
				return w.kind
			}
			x -= w.weight
		}
		return core.OpStat
	}
	path := func() string { return pool[rnd.Intn(len(pool))] }

	prog := Program{Ops: make([][]workload.Op, clients)}
	for c := 0; c < clients; c++ {
		ops := make([]workload.Op, opsPerClient)
		for i := range ops {
			op := workload.Op{Kind: pick(), Path: path()}
			switch op.Kind {
			case core.OpRename, core.OpLink:
				op.Path2 = path()
			case core.OpChmod:
				op.Perm = chmodPerms[rnd.Intn(len(chmodPerms))]
			case core.OpStatDir, core.OpReadDir:
				if rnd.Intn(6) == 0 {
					op.Path = "/" // root reads exercise the no-resolution path
				}
			}
			ops[i] = op
		}
		prog.Ops[c] = ops
	}

	seen := map[string]bool{}
	for _, ops := range prog.Ops {
		for _, op := range ops {
			if op.Path != "/" && op.Path != "" {
				seen[op.Path] = true
			}
			if op.Path2 != "" {
				seen[op.Path2] = true
			}
		}
	}
	for p := range seen {
		prog.Paths = append(prog.Paths, p)
	}
	sort.Strings(prog.Paths)
	return prog
}

// MixProgram compiles a PanguMix-shaped sequential program through
// workload.Program — the trace-derived op ratios of the paper's evaluation,
// materialized deterministically over a small namespace. The namespace is
// built through the normal op stream (a mkdir/create prefix), so the same
// list replays identically against the model, SwitchFS, and the baseline
// with no preload side channel. PanguMix draws no data access: the content
// plane has its own oracle (the chaos data checker).
func MixProgram(seed int64, n int) []workload.Op {
	ns := workload.MultiDir(2, 4)
	var ops []workload.Op
	for _, d := range ns.Dirs {
		ops = append(ops, workload.Op{Kind: core.OpMkdir, Path: d})
		for i := 0; i < ns.FilesPerDir; i++ {
			ops = append(ops, workload.Op{Kind: core.OpCreate, Path: fmt.Sprintf("%s/f%d", d, i)})
		}
	}
	return append(ops, workload.Program(workload.PanguMix().Gen(ns, false), seed, 1, n)[0]...)
}

// Flatten interleaves the program round-robin into one sequential op list
// (the differential harness executes programs single-client).
func (p Program) Flatten() []workload.Op {
	var out []workload.Op
	for i := 0; ; i++ {
		hit := false
		for _, ops := range p.Ops {
			if i < len(ops) {
				out = append(out, ops[i])
				hit = true
			}
		}
		if !hit {
			return out
		}
	}
}
