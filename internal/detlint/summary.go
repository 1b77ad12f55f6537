package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"

	"golang.org/x/tools/go/analysis"
)

// summaryAnalyzer answers, once per package, what the package's own
// functions do when called. Every analyzer that asks "does this call emit a
// packet / make a WAL record / release this lock" reads the same result
// instead of rebuilding its own call graph; it reports nothing itself:
//
//   - emits: the function (or a local closure variable) transitively reaches
//     an env emission root — Proc.Send, Proc.Spawn, Sim.Spawn, Sim.After — so
//     wrappers like server.reply count too;
//   - appendsParam: the function appends a WAL record whose kind it takes as
//     a parameter (mustAppend), so its arguments become the record;
//   - releases: the parameters (receiver = -1) through which the function
//     releases a sim lock.
//
// It also holds the package's ignore-directive index, so every analyzer
// filters its diagnostics through one parse of the suppressions.
var summaryAnalyzer = &analysis.Analyzer{
	Name:       "summary",
	Doc:        "summarize once per package what each function emits, appends and releases",
	Run:        runSummary,
	ResultType: reflect.TypeOf((*summary)(nil)),
}

type summary struct {
	info *types.Info
	// files are the package's syntax trees minus test files.
	files []*ast.File
	// funcs are the declared functions with bodies, in source order.
	funcs   []*ast.FuncDecl
	ignores *ignoreIndex

	emits map[*types.Func]bool
	// emitsVar holds local variables bound to function literals that emit
	// (`fail := func(...) {...}` closures that reply to the client).
	emitsVar map[*types.Var]bool
	// appendsParam holds helpers whose WAL append takes the record kind from
	// a parameter (mustAppend): a call of one makes a WAL record.
	appendsParam map[*types.Func]bool
	releases     map[*types.Func]map[int]bool
}

func runSummary(pass *analysis.Pass) (any, error) {
	s := &summary{
		info:         pass.TypesInfo,
		files:        filesOf(pass),
		emits:        make(map[*types.Func]bool),
		emitsVar:     make(map[*types.Var]bool),
		appendsParam: make(map[*types.Func]bool),
		releases:     make(map[*types.Func]map[int]bool),
	}
	s.ignores = buildIgnoreIndex(pass.Fset, s.files)
	for _, f := range s.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				s.funcs = append(s.funcs, fd)
			}
		}
	}
	s.fixpoint(s.stepEmits, s.stepAppendsParam, s.stepReleases)
	return s, nil
}

// reporter returns pass's diagnostic sink, filtered through the package's
// ignore directives.
func (s *summary) reporter(pass *analysis.Pass) *reporter {
	return &reporter{pass: pass, idx: s.ignores}
}

// summaryOf returns the summary result of pass (whose analyzer requires it).
func summaryOf(pass *analysis.Pass) *summary {
	return pass.ResultOf[summaryAnalyzer].(*summary)
}

func (s *summary) funcObj(fd *ast.FuncDecl) *types.Func {
	obj, _ := s.info.Defs[fd.Name].(*types.Func)
	return obj
}

// fixpoint applies every step to every function until a whole round changes
// nothing. Each summary only grows, so running them in one loop reaches the
// same least fixpoint as running them one after another.
func (s *summary) fixpoint(steps ...func(*types.Func, *ast.FuncDecl) bool) {
	for changed := true; changed; {
		changed = false
		for _, fd := range s.funcs {
			obj := s.funcObj(fd)
			if obj == nil {
				continue
			}
			for _, step := range steps {
				if step(obj, fd) {
					changed = true
				}
			}
		}
	}
}

// eachCall calls f on every call expression in n, nested literals included.
func eachCall(n ast.Node, f func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			f(call)
		}
		return true
	})
}

func (s *summary) stepEmits(obj *types.Func, fd *ast.FuncDecl) bool {
	changed := false
	if !s.emits[obj] && s.bodyEmits(fd.Body) {
		s.emits[obj] = true
		changed = true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := objOf(s.info, id).(*types.Var); ok && !s.emitsVar[v] && s.bodyEmits(lit.Body) {
				s.emitsVar[v] = true
				changed = true
			}
		}
		return true
	})
	return changed
}

func (s *summary) stepAppendsParam(obj *types.Func, fd *ast.FuncDecl) bool {
	if s.appendsParam[obj] {
		return false
	}
	params := paramIndex(s.info, fd)
	eachCall(fd.Body, func(call *ast.CallExpr) {
		if kind, ok := s.walAppendKind(call); ok {
			if id, isIdent := kind.(*ast.Ident); isIdent {
				if _, isParam := params[s.info.Uses[id]]; isParam {
					s.appendsParam[obj] = true
				}
			}
		}
	})
	return s.appendsParam[obj]
}

func (s *summary) stepReleases(obj *types.Func, fd *ast.FuncDecl) bool {
	changed := false
	idx := paramIndex(s.info, fd)
	eachCall(fd.Body, func(call *ast.CallExpr) {
		for _, ref := range s.callReleaseRoots(call) {
			if i, isParam := idx[ref.root]; isParam && !s.releases[obj][i] {
				if s.releases[obj] == nil {
					s.releases[obj] = make(map[int]bool)
				}
				s.releases[obj][i] = true
				changed = true
			}
		}
	})
	return changed
}

// bodyEmits reports whether any call in body (including nested function
// literals) emits.
func (s *summary) bodyEmits(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && s.callEmits(call) {
			found = true
		}
		return !found
	})
	return found
}

// callEmits reports whether one call expression emits: an env emission root,
// an emitting same-package function, or an emitting closure variable.
func (s *summary) callEmits(call *ast.CallExpr) bool {
	if callee := calleeFunc(s.info, call); callee != nil {
		return isEmissionRoot(callee) || s.emits[callee]
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		v, isVar := objOf(s.info, id).(*types.Var)
		return isVar && s.emitsVar[v]
	}
	return false
}

// emissionMethods are the env-package method names treated as roots.
var emissionMethods = map[string]bool{"Send": true, "Spawn": true, "After": true}

// isEmissionRoot reports whether obj is one of the env runtime's emission or
// scheduling methods.
func isEmissionRoot(obj *types.Func) bool {
	return isMethodOf(obj, conf.EnvPackage) && emissionMethods[obj.Name()]
}

// walAppendKind returns the record-kind argument when call is the WAL
// package's one method that makes a record, Append.
func (s *summary) walAppendKind(call *ast.CallExpr) (ast.Expr, bool) {
	obj := calleeFunc(s.info, call)
	if obj == nil || len(call.Args) < 1 || !isMethodOf(obj, conf.WalPackage) || obj.Name() != "Append" {
		return nil, false
	}
	return call.Args[0], true
}

// isAppendCall reports whether call's arguments become a WAL record: a
// direct WAL Append, or a call of a helper that appends its kind parameter.
func (s *summary) isAppendCall(call *ast.CallExpr) bool {
	if _, ok := s.walAppendKind(call); ok {
		return true
	}
	callee := calleeFunc(s.info, call)
	return callee != nil && s.appendsParam[callee]
}

// callReleaseRoots returns the lockRefs this call releases something under: a
// direct env release yields the lock itself; a call to a releasing helper
// yields the argument (or receiver) it releases through.
func (s *summary) callReleaseRoots(call *ast.CallExpr) []lockRef {
	if lock, acquire, isLock := envLockCall(s.info, call); isLock && !acquire {
		if ref, ok := lockRefOf(s.info, lock); ok {
			return []lockRef{ref}
		}
		return nil
	}
	return s.helperReleaseRefs(call)
}

// helperReleaseRefs returns the refs a call to a releasing helper releases
// every lock under (receiver at index -1).
func (s *summary) helperReleaseRefs(call *ast.CallExpr) []lockRef {
	callee := calleeFunc(s.info, call)
	if callee == nil {
		return nil
	}
	var out []lockRef
	for i := range s.releases[callee] {
		var arg ast.Expr
		if i == -1 {
			if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
				arg = sel.X
			}
		} else if i < len(call.Args) {
			arg = call.Args[i]
		}
		if arg == nil {
			continue
		}
		if ref, ok := lockRefOf(s.info, arg); ok {
			out = append(out, ref)
		}
	}
	return out
}

// The helpers below read one package's type information; every analyzer
// shares them.

// objOf returns the object an identifier defines or uses.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// calleeFunc returns the function or method a call statically invokes.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	}
	return nil
}

// isMethodOf reports whether obj is a method of a type declared in pkg.
func isMethodOf(obj *types.Func, pkg string) bool {
	sig, ok := obj.Type().(*types.Signature)
	return ok && sig.Recv() != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

// recvTypeName returns the name of a method's receiver type, sans pointer.
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if n, isNamed := t.(*types.Named); isNamed {
		return n.Obj().Name()
	}
	return ""
}

// paramIndex maps a declaration's receiver and parameter objects to their
// position, the receiver at -1: the objects its state is rooted at.
func paramIndex(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	out := make(map[types.Object]int)
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				if o := info.Defs[name]; o != nil {
					out[o] = -1
				}
			}
		}
	}
	i := 0
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if o := info.Defs[name]; o != nil {
				out[o] = i
			}
			i++
		}
		if len(f.Names) == 0 {
			i++
		}
	}
	return out
}

// isBuiltinCall reports whether call invokes the named builtin (the
// type-checker records builtins in Uses as *types.Builtin).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin || info.Uses[id] == nil
}

// typeUnder unwraps aliases and named types.
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// baseVarOf returns the variable an lvalue or argument expression is rooted
// at: &out.pkt → out, pkt.Trace → pkt, locks[i].msg → locks.
func baseVarOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := objOf(info, x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			// A package-qualified name roots at the named var itself.
			if id, isIdent := ast.Unparen(x.X).(*ast.Ident); isIdent {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					v, _ := info.Uses[x.Sel].(*types.Var)
					return v
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}
