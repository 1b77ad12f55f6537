package lincheck

import (
	"fmt"
	"strings"

	"switchfs/internal/baseline"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/workload"
)

// DiffReport is the outcome of one differential run.
type DiffReport struct {
	// Ops is the number of program operations executed on each system.
	Ops int
	// Divergences lists per-op result mismatches and final-tree mismatches
	// (empty on agreement). Capped; Truncated reports whether more existed.
	Divergences []string
	Truncated   bool
	// Packets sums delivered packets over both system runs (figure
	// counters).
	Packets uint64
}

// Failed reports whether any system disagreed.
func (d *DiffReport) Failed() bool { return len(d.Divergences) > 0 }

const maxDivergences = 12

func (d *DiffReport) divergef(format string, args ...any) {
	if len(d.Divergences) >= maxDivergences {
		d.Truncated = true
		return
	}
	d.Divergences = append(d.Divergences, fmt.Sprintf(format, args...))
}

// diffOutcome compares two observations of the same op; strict additionally
// compares permissions (the baseline stores none — relaxed mode checks the
// shape every system shares: errors, types, entry lists, directory sizes).
func diffOutcome(op workload.Op, a, b workload.Outcome, strict bool) string {
	if !sameErr(a.Err, b.Err) {
		return fmt.Sprintf("error %v vs %v", a.Err, b.Err)
	}
	if a.Err != nil {
		return ""
	}
	switch op.Kind {
	case core.OpStat, core.OpOpen:
		if a.Attr.Type != b.Attr.Type {
			return fmt.Sprintf("type %s vs %s", a.Attr.Type, b.Attr.Type)
		}
		if strict && a.Attr.Perm != b.Attr.Perm {
			return fmt.Sprintf("perm %#o vs %#o", a.Attr.Perm, b.Attr.Perm)
		}
	case core.OpStatDir:
		if a.Attr.Size != b.Attr.Size {
			return fmt.Sprintf("size %d vs %d", a.Attr.Size, b.Attr.Size)
		}
		if strict && a.Attr.Perm != b.Attr.Perm {
			return fmt.Sprintf("perm %#o vs %#o", a.Attr.Perm, b.Attr.Perm)
		}
	case core.OpReadDir:
		sa, sb := entryNames(a.Entries), entryNames(b.Entries)
		if sa != sb {
			return fmt.Sprintf("entries [%s] vs [%s]", sa, sb)
		}
	}
	return ""
}

func entryNames(es []core.DirEntry) string {
	parts := make([]string, len(es))
	for i, e := range workload.SortEntries(es) {
		parts[i] = fmt.Sprintf("%s(%s)", e.Name, e.Type)
	}
	return strings.Join(parts, " ")
}

// RunDiff executes one deterministic sequential program against the Model,
// SwitchFS, and the baseline (Emulated-InfiniFS), diffing every per-op
// result and the final namespace trees. SwitchFS is held to the model with
// permissions; the baseline to the shared shape.
func RunDiff(seed int64, ops []workload.Op) *DiffReport {
	return DiffWithModel(NewModel(), seed, ops)
}

// DiffWithModel is RunDiff with a caller-supplied model — the mutation tests
// pass a deliberately-broken one to prove divergence detection works.
func DiffWithModel(m *Model, seed int64, ops []workload.Op) *DiffReport {
	rep := &DiffReport{Ops: len(ops)}

	// Model.
	mouts := make([]workload.Outcome, len(ops))
	for i, op := range ops {
		mouts[i] = m.Apply(op)
	}

	// SwitchFS.
	souts, stree, spkts, sok := runSequential(seed, ops, func(sim *env.Sim) fsapi.System {
		return cluster.New(sim, cluster.Options{
			Servers: 4, Clients: 1, Switches: 1,
			SwitchIndexBits: 12, Costs: env.DefaultCosts(),
		})
	}, true)
	rep.Packets += spkts
	if !sok {
		rep.divergef("SwitchFS: program wedged before completion")
		return rep
	}

	// Baseline.
	bouts, btree, bpkts, bok := runSequential(seed, ops, func(sim *env.Sim) fsapi.System {
		return baseline.New(sim, baseline.Options{
			Mode: baseline.InfiniFS, Servers: 4, Clients: 1,
			Costs: env.DefaultCosts(),
		})
	}, false)
	rep.Packets += bpkts
	if !bok {
		rep.divergef("baseline: program wedged before completion")
		return rep
	}

	for i, op := range ops {
		if d := diffOutcome(op, mouts[i], souts[i], true); d != "" {
			rep.divergef("op %d %s: model vs SwitchFS: %s (model %s, SwitchFS %s)",
				i, op, d, mouts[i], souts[i])
		}
		if d := diffOutcome(op, mouts[i], bouts[i], false); d != "" {
			rep.divergef("op %d %s: model vs baseline: %s (model %s, baseline %s)",
				i, op, d, mouts[i], bouts[i])
		}
	}
	if want := m.Tree(true); want != stree {
		rep.divergef("final tree: model vs SwitchFS:\n--- model ---\n%s--- SwitchFS ---\n%s",
			want, stree)
	}
	if want := m.Tree(false); want != btree {
		rep.divergef("final tree: model vs baseline:\n--- model ---\n%s--- baseline ---\n%s",
			want, btree)
	}
	return rep
}

// runSequential executes the program single-client on a fresh deployment
// and walks the final tree.
func runSequential(seed int64, ops []workload.Op, deploy func(*env.Sim) fsapi.System,
	withPerms bool) (outs []workload.Outcome, tree string, packets uint64, ok bool) {

	sim := env.NewSim(seed)
	defer sim.Shutdown()
	sys := deploy(sim)
	fs := sys.ClientFS(0)
	outs = make([]workload.Outcome, len(ops))
	sys.SpawnClient(0, func(p *env.Proc) {
		for i, op := range ops {
			outs[i] = workload.Apply(p, fs, op)
		}
		tree = walkTree(p, fs, withPerms)
		ok = true
	})
	sim.Run()
	return outs, tree, sim.Delivered, ok
}

// walkTree renders a deployed system's namespace in Model.Tree's canonical
// format: recursive readdir from the root, statdir for directory sizes, stat
// for file permissions (strict mode).
func walkTree(p *env.Proc, fs fsapi.FS, withPerms bool) string {
	var b strings.Builder
	rootAttr, err := fs.StatDir(p, "/")
	if err != nil {
		return fmt.Sprintf("/ !statdir: %v\n", err)
	}
	fmt.Fprintf(&b, "/ dir size=%d\n", rootAttr.Size)
	var rec func(dir string)
	rec = func(dir string) {
		arg := dir
		if arg == "" {
			arg = "/"
		}
		es, err := fs.ReadDir(p, arg)
		if err != nil {
			fmt.Fprintf(&b, "%s !readdir: %v\n", arg, err)
			return
		}
		for _, e := range workload.SortEntries(es) {
			path := dir + "/" + e.Name
			if e.Type == core.TypeDir {
				a, err := fs.StatDir(p, path)
				if err != nil {
					fmt.Fprintf(&b, "%s !statdir: %v\n", path, err)
					continue
				}
				fmt.Fprintf(&b, "%s dir size=%d", path, a.Size)
				if withPerms {
					fmt.Fprintf(&b, " perm=%#o", a.Perm)
				}
				b.WriteByte('\n')
				rec(path)
			} else {
				fmt.Fprintf(&b, "%s %s", path, e.Type)
				if withPerms {
					a, err := fs.Stat(p, path)
					if err != nil {
						fmt.Fprintf(&b, " !stat: %v\n", err)
						continue
					}
					fmt.Fprintf(&b, " perm=%#o", a.Perm)
				}
				b.WriteByte('\n')
			}
		}
	}
	rec("")
	return b.String()
}
