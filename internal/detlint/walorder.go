package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
)

// Walorder checks WAL-before-send discipline on annotated functions:
//
//	//detlint:wal-before-send <record> [via=<fn>[,<fn>...]]
//
// On the annotated function's control-flow graph, a WAL append of <record>
// (directly, or through a helper like mustAppend, or through a callee that
// unconditionally appends it, like recordCommit) must dominate every packet
// emission — every call that transitively reaches env.Proc.Send. With via=,
// only calls to the named emitters are checked, which pins the protocol-
// decision packets (TxnDecision, CommitNotice) while leaving request/retry
// traffic to its own annotations. A send reachable from the function entry
// without passing an append is a diagnostic: that is exactly the "decision
// emitted before it was logged" bug class a crash turns into divergence.
//
// Emissions that are legitimately unlogged (presumed-abort votes, error
// replies) carry //detlint:ignore walorder with the protocol argument.
var Walorder = &analysis.Analyzer{
	Name:     "walorder",
	Doc:      "check that annotated functions append to the WAL before emitting packets",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:      runWalorder,
}

func init() {
	Walorder.Flags.StringVar(&conf.WalPackage, "wal", conf.WalPackage,
		"import path of the write-ahead log package")
	Walorder.Flags.StringVar(&conf.EnvPackage, "env", conf.EnvPackage,
		"import path of the simulator runtime package")
}

func runWalorder(pass *analysis.Pass) (any, error) {
	files := filesOf(pass)
	r := newReporter(pass)
	g := newSendGraph(pass, files)
	ap := newAppendGraph(pass, files)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			for _, dir := range funcWalSendDirectives(fn) {
				if dir.bad != "" {
					continue // detdirective reports the parse problem
				}
				checkWalOrder(pass, r, g, ap, cfgs.FuncDecl(fn), fn, dir)
			}
		}
	}
	return nil, nil
}

// appendGraph classifies the package's functions by WAL-append behaviour.
type appendGraph struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	// appendsParam holds helpers whose WAL append takes the record kind from
	// one of their own parameters (mustAppend): a call site passing a record
	// constant is then an append point for that record.
	appendsParam map[*types.Func]bool
	// appendsConst maps a function to the record constants it appends
	// unconditionally-enough for lint purposes (anywhere in its body).
	appendsConst map[*types.Func]map[string]bool
}

func newAppendGraph(pass *analysis.Pass, files []*ast.File) *appendGraph {
	ap := &appendGraph{
		pass:         pass,
		decls:        make(map[*types.Func]*ast.FuncDecl),
		appendsParam: make(map[*types.Func]bool),
		appendsConst: make(map[*types.Func]map[string]bool),
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					ap.decls[obj] = fd
				}
			}
		}
	}
	// Base: direct wal.Append calls, splitting on whether the kind argument
	// is a constant or a parameter of the enclosing function.
	for obj, fd := range ap.decls {
		params := paramObjs(pass, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := ap.walAppendKindArg(call)
			if !ok {
				return true
			}
			if name, isConst := constIdentName(pass, kind); isConst {
				ap.addConst(obj, name)
			} else if id, isIdent := kind.(*ast.Ident); isIdent && params[pass.TypesInfo.Uses[id]] {
				ap.appendsParam[obj] = true
			}
			return true
		})
	}
	// Fixpoint: calling an appendsParam helper with a record constant, or an
	// appendsConst function, propagates the record upward.
	for changed := true; changed; {
		changed = false
		for obj, fd := range ap.decls {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, rec := range ap.callAppends(call) {
					if !ap.appendsConst[obj][rec] {
						ap.addConst(obj, rec)
						changed = true
					}
				}
				return true
			})
		}
	}
	return ap
}

func (ap *appendGraph) addConst(obj *types.Func, rec string) {
	m := ap.appendsConst[obj]
	if m == nil {
		m = make(map[string]bool)
		ap.appendsConst[obj] = m
	}
	m[rec] = true
}

// walAppendKindArg returns the record-kind argument when call is
// walPackage's Append method.
func (ap *appendGraph) walAppendKindArg(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) < 1 {
		return nil, false
	}
	obj, ok := ap.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != conf.WalPackage || obj.Name() != "Append" {
		return nil, false
	}
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return nil, false
	}
	return call.Args[0], true
}

// callAppends returns the record constants this call appends: a direct wal
// Append with a constant kind, a call to an appendsParam helper passing a
// record constant, or a call to a function already classified appendsConst.
func (ap *appendGraph) callAppends(call *ast.CallExpr) []string {
	var out []string
	if kind, ok := ap.walAppendKindArg(call); ok {
		if name, isConst := constIdentName(ap.pass, kind); isConst {
			out = append(out, name)
		}
		return out
	}
	callee := calleeFunc(ap.pass, call)
	if callee == nil {
		return nil
	}
	if ap.appendsParam[callee] {
		for _, arg := range call.Args {
			if name, isConst := constIdentName(ap.pass, arg); isConst {
				out = append(out, name)
			}
		}
	}
	for rec := range ap.appendsConst[callee] {
		out = append(out, rec)
	}
	return out
}

// appendsRecord reports whether call is an append point for record rec.
func (ap *appendGraph) appendsRecord(call *ast.CallExpr, rec string) bool {
	for _, r := range ap.callAppends(call) {
		if r == rec {
			return true
		}
	}
	return false
}

func paramObjs(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Params == nil {
		return out
	}
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if o := pass.TypesInfo.Defs[name]; o != nil {
				out[o] = true
			}
		}
	}
	return out
}

func constIdentName(pass *analysis.Pass, e ast.Expr) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, isConst := pass.TypesInfo.Uses[id].(*types.Const); !isConst {
		return "", false
	}
	return id.Name, true
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleeName returns the syntactic name a call invokes (for via= matching):
// the method or function identifier, covering closures bound to locals.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// checkWalOrder verifies one annotation on one function.
func checkWalOrder(pass *analysis.Pass, r *reporter, g *sendGraph, ap *appendGraph,
	graph *cfg.CFG, fn *ast.FuncDecl, dir walSendDirective) {

	via := make(map[string]bool)
	viaSeen := make(map[string]bool)
	for _, v := range dir.via {
		via[v] = true
	}

	// Collect the relevant calls at the top level of the function: calls
	// inside nested function literals run on their own schedule (often a
	// retry loop or a deferred cleanup) and are outside this function's CFG,
	// so they get their own annotation if they need one. Deferred calls run
	// at return, after every append on the path, and are skipped too.
	type callSite struct {
		call     *ast.CallExpr
		isAppend bool
		isSend   bool
	}
	var sites []callSite
	haveAppend := false
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				walk(m.Body, true)
				return false
			case *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				if inLit {
					return true
				}
				cs := callSite{call: m}
				if ap.appendsRecord(m, dir.record) {
					cs.isAppend = true
					haveAppend = true
				}
				if len(via) > 0 {
					if name := calleeName(m); via[name] {
						viaSeen[name] = true
						cs.isSend = true
					}
				} else if g.callEmits(m) {
					cs.isSend = true
				}
				if cs.isAppend || cs.isSend {
					sites = append(sites, cs)
				}
			}
			return true
		})
	}
	walk(fn.Body, false)

	// Annotation-level problems anchor on the function name: the directive
	// comment line cannot carry a trailing suppression, the declaration can.
	if !haveAppend {
		r.reportf(fn.Name.Pos(), "wal-before-send: %s never appends WAL record %s (directly or via a helper)", fn.Name.Name, dir.record)
		return
	}
	for v := range via {
		if !viaSeen[v] {
			r.reportf(fn.Name.Pos(), "wal-before-send: via target %q is never called in %s", v, fn.Name.Name)
		}
	}

	// Locate each site's basic block, then find the blocks reachable from
	// entry without passing an append point.
	blockOf := make(map[*ast.CallExpr]*cfg.Block)
	appendPos := make(map[*cfg.Block][]token.Pos)
	for _, b := range graph.Blocks {
		for _, n := range b.Nodes {
			for _, cs := range sites {
				if n.Pos() <= cs.call.Pos() && cs.call.End() <= n.End() {
					blockOf[cs.call] = b
					if cs.isAppend {
						appendPos[b] = append(appendPos[b], cs.call.Pos())
					}
				}
			}
		}
	}

	reachableNoAppend := make(map[*cfg.Block]bool)
	if len(graph.Blocks) > 0 {
		work := []*cfg.Block{graph.Blocks[0]}
		reachableNoAppend[graph.Blocks[0]] = true
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			if len(appendPos[b]) > 0 {
				continue // paths through b pass an append before leaving it
			}
			for _, s := range b.Succs {
				if !reachableNoAppend[s] {
					reachableNoAppend[s] = true
					work = append(work, s)
				}
			}
		}
	}

	for _, cs := range sites {
		if !cs.isSend || cs.isAppend {
			continue
		}
		b, ok := blockOf[cs.call]
		if !ok {
			// Not in the CFG (unreachable code); nothing to prove.
			continue
		}
		if !reachableNoAppend[b] {
			continue // every path here already appended
		}
		dominated := false
		for _, p := range appendPos[b] {
			if p < cs.call.Pos() {
				dominated = true
				break
			}
		}
		if !dominated {
			r.reportf(cs.call.Pos(),
				"packet emission reachable before the %s WAL append: a crash between this send and the append makes the receiver act on a decision the restarted server never re-derives (wal-before-send on %s)",
				dir.record, fn.Name.Name)
		}
	}
}
