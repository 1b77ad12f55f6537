package detlint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Dettaint tracks nondeterminism from its sources into the artifacts that
// must be seed-stable: packet payloads, WAL records, and bench rows. The
// sources are configured in detlint.json (taintSources) — wall-clock reads,
// scheduler internals like env.Sim.WorkerCount — plus slices built in
// map-iteration order, which generalizes maprange across function and
// package boundaries: a helper that returns an unsorted map snapshot exports
// a fact, and a caller in any governed package that lets that value reach a
// sink is diagnosed, unless it sorts the slice first (the caller-side
// sortedClogs idiom).
//
// Propagation is a per-function fixpoint over assignments, coarse at struct
// granularity (tainting res.Workers taints res). Returning a tainted value
// exports a taintedResult object fact, so the taint crosses packages under
// `go vet` without whole-program analysis.
//
// A //detlint:ignore dettaint on the source line declares the value
// deterministic (with the written reason) and stops propagation there —
// e.g. WorkerCount under the token-passing scheduler.
var Dettaint = &analysis.Analyzer{
	Name:      "dettaint",
	Doc:       "track nondeterminism sources into packet payloads, WAL records and bench rows",
	FactTypes: []analysis.Fact{(*taintedResult)(nil)},
	Requires:  []*analysis.Analyzer{summaryAnalyzer},
	Run:       runDettaint,
}

// taintedResult is the cross-package fact: the function's return value
// derives from the named nondeterminism source.
type taintedResult struct {
	Reason string
}

func (*taintedResult) AFact()           {}
func (f *taintedResult) String() string { return "taintedResult(" + f.Reason + ")" }

// reasonMapOrder marks order taint, the one flavour a sort cures.
const reasonMapOrder = "map-iteration order"

// funcKeys returns the config-matching names for a function object:
// "pkg.Func" and, for methods, "pkg.Recv.Method".
func funcKeys(obj *types.Func) []string {
	if obj.Pkg() == nil {
		return nil
	}
	path := obj.Pkg().Path()
	keys := []string{path + "." + obj.Name()}
	if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() != nil {
		if name := recvTypeName(sig); name != "" {
			keys = append(keys, path+"."+name+"."+obj.Name())
		}
	}
	return keys
}

// sourceReason returns the matching taintSources entry for a callee.
func sourceReason(obj *types.Func) (string, bool) {
	for _, k := range funcKeys(obj) {
		for _, s := range conf.TaintSources {
			if k == s {
				return s, true
			}
		}
	}
	return "", false
}

// isSinkType reports whether t (sans pointer) is a configured sink type.
func isSinkType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil {
		return false
	}
	key := n.Obj().Pkg().Path() + "." + n.Obj().Name()
	for _, s := range conf.TaintSinkTypes {
		if key == s {
			return true
		}
	}
	return false
}

func runDettaint(pass *analysis.Pass) (any, error) {
	if !pkgMatch(conf.TaintPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	s := summaryOf(pass)
	r := s.reporter(pass)
	// Phase 1: propagate facts to a fixpoint, so same-package helpers are
	// classified whatever their declaration order. Phase 2 reports.
	for changed := true; changed; {
		changed = false
		for _, fn := range s.funcs {
			if checkTaint(pass, r, s, fn, false) {
				changed = true
			}
		}
	}
	for _, fn := range s.funcs {
		checkTaint(pass, r, s, fn, true)
	}
	return nil, nil
}

// taintState maps objects to the reason they are tainted.
type taintState map[types.Object]string

// checkTaint runs source → propagation → sink over one declaration
// (closures included: captured locals share the object space). With report
// unset it only computes and exports facts; it returns whether a new fact
// was exported.
func checkTaint(pass *analysis.Pass, r *reporter, s *summary, fn *ast.FuncDecl, report bool) bool {
	info := s.info
	tainted := make(taintState)

	// sourceCallReason classifies a call as a taint source: a configured
	// nondeterminism function or a callee with an exported taintedResult
	// fact. A dettaint suppression on the call's line declares the value
	// deterministic and stops propagation.
	sourceCallReason := func(call *ast.CallExpr) (string, bool) {
		callee := calleeFunc(info, call)
		if callee == nil {
			return "", false
		}
		reason, isSource := sourceReason(callee)
		if !isSource {
			var fact taintedResult
			if !pass.ImportObjectFact(callee, &fact) {
				return "", false
			}
			reason = fact.Reason + " via " + callee.Name()
		}
		if r.idx.suppressed("dettaint", call.Pos()) {
			return "", false
		}
		return reason, true
	}

	// exprTaint reports whether an expression carries taint. len/cap of a
	// tainted collection are deterministic and stay clean.
	var exprTaint func(e ast.Expr) (string, bool)
	exprTaint = func(e ast.Expr) (string, bool) {
		reason, found := "", false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if isBuiltinCall(info, n, "len") || isBuiltinCall(info, n, "cap") {
					return false
				}
				if why, isSource := sourceCallReason(n); isSource {
					reason, found = why, true
					return false
				}
			case *ast.Ident:
				if why, isTainted := tainted[objOf(info, n)]; isTainted {
					reason, found = why, true
					return false
				}
			}
			return true
		})
		return reason, found
	}

	taintLHS := func(lhs ast.Expr, reason string) bool {
		var obj types.Object
		if id, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
			obj = objOf(info, id)
		} else if v := baseVarOf(info, lhs); v != nil {
			obj = v // coarse: res.Workers = … taints res
		}
		if obj == nil || tainted[obj] != "" {
			return false
		}
		tainted[obj] = reason
		return true
	}

	// Fixpoint: sources and assignments, including order taint from slices
	// appended in map-iteration order without a sort after the loop.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var why string
					var isTainted bool
					if len(n.Rhs) == len(n.Lhs) {
						why, isTainted = exprTaint(n.Rhs[i])
					} else if len(n.Rhs) == 1 {
						why, isTainted = exprTaint(n.Rhs[0])
					}
					if isTainted && taintLHS(lhs, why) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					if why, isTainted := exprTaint(v); isTainted {
						for _, name := range n.Names {
							if taintLHS(name, why) {
								changed = true
							}
						}
					}
				}
			case *ast.RangeStmt:
				if why, isTainted := exprTaint(n.X); isTainted {
					for _, lv := range []ast.Expr{n.Key, n.Value} {
						if lv != nil && taintLHS(lv, why) {
							changed = true
						}
					}
				}
				if _, isMap := typeUnder(info.TypeOf(n.X)).(*types.Map); isMap {
					if markMapOrderAppends(r, info, fn, n, tainted) {
						changed = true
					}
				}
			}
			return true
		})
	}

	// A sort call cures order taint (only): drop those objects.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		obj, isFn := info.Uses[sel.Sel].(*types.Func)
		if !isFn || obj.Pkg() == nil {
			return true
		}
		if p := obj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent {
				o := info.Uses[id]
				if why, isTainted := tainted[o]; isTainted && isOrderReason(why) {
					delete(tainted, o)
				}
			}
		}
		return true
	})

	// Facts: a tainted return makes the taint visible to callers in other
	// packages (closure returns belong to the closure, not the function).
	newFact := false
	if fnObj := s.funcObj(fn); fnObj != nil &&
		fn.Type.Results != nil && len(tainted) > 0 {
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				for _, res := range m.Results {
					if why, isTainted := exprTaint(res); isTainted {
						var have taintedResult
						if !pass.ImportObjectFact(fnObj, &have) {
							pass.ExportObjectFact(fnObj, &taintedResult{Reason: why})
							newFact = true
						}
						return false
					}
				}
			}
			return true
		})
	}
	// Sinks still need a pass even with no tainted variable: a source call
	// can feed a sink expression directly (bench.Result{Workers: src()}).
	if !report {
		return newFact
	}

	// Sinks.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sink := ""
			if s.callEmits(n) {
				sink = "a packet emission"
			} else if s.isAppendCall(n) {
				sink = "a WAL record"
			} else if sel, isSel := n.Fun.(*ast.SelectorExpr); isSel &&
				isSinkType(info.TypeOf(sel.X)) {
				sink = "a bench/figure row"
			}
			if sink == "" {
				return true
			}
			for _, arg := range n.Args {
				if why, isTainted := exprTaint(arg); isTainted {
					r.reportf(arg.Pos(),
						"nondeterministic value (%s) flows into %s: same-seed runs diverge; sort or gate it, or declare it deterministic with //detlint:ignore dettaint at the source",
						why, sink)
					break
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !sinkFieldWrite(info, lhs) {
					continue
				}
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == len(n.Lhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				default:
					continue
				}
				if why, isTainted := exprTaint(rhs); isTainted {
					r.reportf(lhs.Pos(),
						"nondeterministic value (%s) stored into a bench/figure field: same-seed runs diverge; gate it or declare it deterministic with //detlint:ignore dettaint at the source",
						why)
				}
			}
		case *ast.CompositeLit:
			if !isSinkType(info.TypeOf(n)) {
				return true
			}
			for _, elt := range n.Elts {
				if why, isTainted := exprTaint(elt); isTainted {
					r.reportf(elt.Pos(),
						"nondeterministic value (%s) stored into a bench/figure literal: same-seed runs diverge; gate it or declare it deterministic with //detlint:ignore dettaint at the source",
						why)
				}
			}
		}
		return true
	})

	return newFact
}

// isOrderReason reports whether a taint reason is (transitively) order
// taint, which sorting cures.
func isOrderReason(why string) bool {
	return len(why) >= len(reasonMapOrder) && why[:len(reasonMapOrder)] == reasonMapOrder
}

// markMapOrderAppends taints slices appended to inside a map-range body
// without a sort after the loop (the cross-function half of maprange).
func markMapOrderAppends(r *reporter, info *types.Info, fn *ast.FuncDecl,
	rng *ast.RangeStmt, tainted taintState) bool {

	changed := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent || i >= len(as.Rhs) {
				continue
			}
			call, isCall := as.Rhs[i].(*ast.CallExpr)
			if !isCall || !isBuiltinCall(info, call, "append") {
				continue
			}
			obj := objOf(info, id)
			// Only slices that outlive the loop carry the order out.
			if obj == nil || obj.Pos() >= rng.Pos() || tainted[obj] != "" {
				continue
			}
			if sortedAfterLoop(info, fn, rng, obj) {
				continue
			}
			if r.idx.suppressed("dettaint", rng.Pos()) || r.idx.suppressed("dettaint", id.Pos()) {
				continue
			}
			tainted[obj] = reasonMapOrder
			changed = true
		}
		return true
	})
	return changed
}

// sinkFieldWrite reports whether lhs writes a field of a sink-typed value
// (fig.WallSeconds = …, res.Rows[i] = …).
func sinkFieldWrite(info *types.Info, lhs ast.Expr) bool {
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if isSinkType(info.TypeOf(x.X)) {
				return true
			}
			lhs = x.X
		case *ast.IndexExpr:
			if isSinkType(info.TypeOf(x.X)) {
				return true
			}
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return false
		}
	}
}
