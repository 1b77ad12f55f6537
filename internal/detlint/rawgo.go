package detlint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Rawgo forbids raw concurrency — `go` statements, channel types and
// operations, select, and the blocking sync primitives — in packages the
// simulator schedules. Protocol code runs on env.Proc under a token-passing
// scheduler with exactly one runnable process; a raw goroutine escapes the
// scheduler (its interleaving is the Go runtime's choice, not the seed's),
// and a channel or sync.Mutex park would wedge the token. The replacements
// are env.Proc.Spawn, env.Future, env.Mutex, env.RWMutex, env.Cond and
// env.Semaphore. The simulator package itself is governed too: its workers
// are iter.Pull coroutines resumed by one driver loop, so nothing in the
// tree needs a host-level lock and the repository carries no rawgo
// suppression (TestReportOverRepo fails on one).
//
// sync/atomic stays legal for the analyzer: atomic loads/stores don't park
// and don't reorder observable protocol events.
var Rawgo = &analysis.Analyzer{
	Name:     "rawgo",
	Doc:      "forbid raw goroutines, channels and sync primitives in simulator-scheduled packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runRawgo,
}

func init() {
	addListFlag(&Rawgo.Flags, &conf.SimPackages, "packages",
		"comma-separated import paths the analyzer governs")
}

// forbiddenSyncTypes are the sync types that can park a goroutine (or, for
// WaitGroup, block on runtime-scheduled completion order).
var forbiddenSyncTypes = map[string]string{
	"Mutex":     "env.Mutex",
	"RWMutex":   "env.RWMutex",
	"WaitGroup": "env.Future per child (or a counting env.Semaphore)",
	"Cond":      "env.Cond",
}

func runRawgo(pass *analysis.Pass) (any, error) {
	if !pkgMatch(conf.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	r := newReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodes := []ast.Node{
		(*ast.GoStmt)(nil),
		(*ast.SendStmt)(nil),
		(*ast.UnaryExpr)(nil),
		(*ast.SelectStmt)(nil),
		(*ast.ChanType)(nil),
		(*ast.SelectorExpr)(nil),
		(*ast.RangeStmt)(nil),
	}
	ins.Preorder(nodes, func(n ast.Node) {
		if isTestFile(pass.Fset.Position(n.Pos()).Filename) {
			return
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			r.reportf(n.Pos(), "go statement in a simulator-scheduled package: raw goroutines escape the token-passing scheduler; use env.Proc.Spawn")
		case *ast.SendStmt:
			r.reportf(n.Pos(), "channel send in a simulator-scheduled package: channel parks wedge the single-runnable-proc invariant; use env.Future or env.Semaphore")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				r.reportf(n.Pos(), "channel receive in a simulator-scheduled package: channel parks wedge the single-runnable-proc invariant; use env.Future")
			}
		case *ast.SelectStmt:
			r.reportf(n.Pos(), "select in a simulator-scheduled package: the runtime's case choice is nondeterministic; use env.Future.WaitTimeout")
		case *ast.ChanType:
			r.reportf(n.Pos(), "channel type in a simulator-scheduled package: use env.Future or env.Semaphore")
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					r.reportf(n.Pos(), "range over channel in a simulator-scheduled package: use env.Future")
				}
			}
		case *ast.SelectorExpr:
			checkSyncMention(pass, r, n)
		}
	})
	return nil, nil
}

// checkSyncMention reports uses of the forbidden sync types and their
// methods. Type mentions (fields, vars, params) are the primary report site
// so one declaration carries one diagnostic (and one suppression governs the
// whole field); method calls on an already-suppressed field are not
// re-reported, since the selector there resolves to the method, not the
// type — we only flag the type name selector `sync.X`.
func checkSyncMention(pass *analysis.Pass, r *reporter, sel *ast.SelectorExpr) {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return
	}
	if repl, bad := forbiddenSyncTypes[obj.Name()]; bad {
		r.reportf(sel.Pos(), "sync.%s in a simulator-scheduled package parks outside the token-passing scheduler; use %s", obj.Name(), repl)
	}
}
