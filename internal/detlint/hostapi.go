package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Hostapi forbids the host APIs that make two same-seed runs of the
// simulator diverge, in every package the simulator executes (the simulator
// itself included; test files are exempt):
//
//   - the wall clock and its timers, and the process-globally seeded math/rand
//     functions: protocol code takes time from Sim.Now / Proc.Now, delays
//     from Proc.Sleep / Sim.After, and randomness from a seeded rand.Rand;
//   - the sync types that park a goroutine, and goroutines, channels and
//     select: protocol code runs on env.Proc under a token-passing scheduler
//     with exactly one runnable process, so a raw goroutine's interleaving is
//     the Go runtime's choice, not the seed's, and a channel or sync.Mutex
//     park wedges the token. The replacements are env.Proc.Spawn,
//     env.Future, env.Mutex, env.RWMutex and env.Semaphore.
//
// Any mention of a forbidden name is flagged, including passing a function
// as a value. Methods (a seeded (*rand.Rand).Intn, time.Time.Sub) and the
// seeded constructors (rand.New, rand.NewSource) stay legal, and so does
// sync/atomic: an atomic never parks. The repository carries no hostapi
// suppression (TestReportOverRepo fails on one).
var Hostapi = &analysis.Analyzer{
	Name:     "hostapi",
	Doc:      "forbid the wall clock, global randomness and host concurrency in simulator packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer, summaryAnalyzer},
	Run:      runHostapi,
}

// hostNames maps each forbidden package-level name to its replacement.
var hostNames = func() map[string]string {
	m := map[string]string{
		"time.Now":       "Sim.Now / Proc.Now",
		"time.Since":     "Proc.Now arithmetic",
		"time.Until":     "Proc.Now arithmetic",
		"time.Sleep":     "Proc.Sleep",
		"time.After":     "Sim.After",
		"time.AfterFunc": "Sim.After",
		"time.Tick":      "Sim.After rearmed",
		"time.NewTimer":  "Sim.After",
		"time.NewTicker": "Sim.After rearmed",
		"sync.Mutex":     "env.Mutex",
		"sync.RWMutex":   "env.RWMutex",
		"sync.WaitGroup": "env.Future per child (or a counting env.Semaphore)",
		"sync.Cond":      "env.Future",
	}
	// The globally seeded convenience functions of math/rand and
	// math/rand/v2.
	for _, f := range strings.Fields(`Int Intn IntN Int31 Int31n Int32 Int32N
		Int63 Int63n Int64 Int64N Uint32 Uint32N Uint64 Uint64N UintN Uint N
		Float32 Float64 ExpFloat64 NormFloat64 Perm Shuffle Seed Read`) {
		m["math/rand."+f] = "a seeded *rand.Rand"
		m["math/rand/v2."+f] = "a seeded *rand.Rand"
	}
	return m
}()

func runHostapi(pass *analysis.Pass) (any, error) {
	if !pkgMatch(conf.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	r := summaryOf(pass).reporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodes := []ast.Node{
		(*ast.SelectorExpr)(nil),
		(*ast.GoStmt)(nil),
		(*ast.SendStmt)(nil),
		(*ast.UnaryExpr)(nil),
		(*ast.SelectStmt)(nil),
		(*ast.ChanType)(nil),
		(*ast.RangeStmt)(nil),
	}
	ins.Preorder(nodes, func(n ast.Node) {
		if isTestFile(pass.Fset.Position(n.Pos()).Filename) {
			return
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			checkHostName(r, pass.TypesInfo, sel)
		} else if what, fix := hostSyntax(pass.TypesInfo, n); what != "" {
			r.reportf(n.Pos(), "%s in a simulator-scheduled package: %s", what, fix)
		}
	})
	return nil, nil
}

// checkHostName reports a mention of a forbidden package-level function or
// type. A type is reported where it is named (a field, var or parameter), so
// one declaration carries one diagnostic; its method calls are not.
func checkHostName(r *reporter, info *types.Info, sel *ast.SelectorExpr) {
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	name := obj.Pkg().Path() + "." + obj.Name()
	use, bad := hostNames[name]
	if !bad {
		return
	}
	if _, isType := obj.(*types.TypeName); isType {
		r.reportf(sel.Pos(), "%s in a simulator-scheduled package parks outside the token-passing scheduler; use %s", name, use)
		return
	}
	r.reportf(sel.Pos(), "%s in a simulator-visible package breaks seeded determinism; use %s", name, use)
}

// hostSyntax names the raw-concurrency construct n is, if any, and its
// replacement.
func hostSyntax(info *types.Info, n ast.Node) (what, fix string) {
	const park = "channel parks wedge the single-runnable-proc invariant; "
	switch n := n.(type) {
	case *ast.GoStmt:
		return "go statement", "raw goroutines escape the token-passing scheduler; use env.Proc.Spawn"
	case *ast.SendStmt:
		return "channel send", park + "use env.Future or env.Semaphore"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", park + "use env.Future"
		}
	case *ast.SelectStmt:
		return "select", "the runtime's case choice is nondeterministic; use env.Future.WaitTimeout"
	case *ast.ChanType:
		return "channel type", "use env.Future or env.Semaphore"
	case *ast.RangeStmt:
		if _, ok := typeUnder(info.TypeOf(n.X)).(*types.Chan); ok {
			return "range over channel", "use env.Future"
		}
	}
	return "", ""
}
