package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Maprange flags `for … range` over a map whose loop body has effects that
// observe the iteration order: packet emission (directly or through a
// wrapper), appends to a slice that outlives the loop without a sort, and
// last-writer-wins stores to state declared outside the loop. Go randomizes
// map iteration order per process, so any of these leaks the order into
// behaviour two runs of the simulator must agree on byte for byte.
//
// Order-insensitive bodies pass: commutative accumulation (`n += v`, `n++`),
// writes keyed by the loop variables (`out[k] = f(v)`), deletes keyed by the
// loop variables, and append-then-sort snapshots (the sortedClogs idiom —
// the append is exempt when the enclosing function sorts the slice after
// the loop).
var Maprange = &analysis.Analyzer{
	Name:     "maprange",
	Doc:      "flag map iteration whose body observes the (randomized) iteration order",
	Requires: []*analysis.Analyzer{inspect.Analyzer, summaryAnalyzer},
	Run:      runMaprange,
}

func runMaprange(pass *analysis.Pass) (any, error) {
	if !pkgMatch(conf.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	s := summaryOf(pass)
	r := s.reporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		rng := n.(*ast.RangeStmt)
		if isTestFile(pass.Fset.Position(rng.Pos()).Filename) {
			return false
		}
		if _, ok := typeUnder(pass.TypesInfo.TypeOf(rng.X)).(*types.Map); !ok {
			return true
		}
		var fn *ast.FuncDecl
		for _, s := range stack {
			if fd, ok := s.(*ast.FuncDecl); ok {
				fn = fd
			}
		}
		checkMapRange(r, s, fn, rng)
		return true
	})
	return nil, nil
}

func checkMapRange(r *reporter, s *summary, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	info := s.info
	// loopLocal reports whether expr mentions any identifier declared inside
	// the range statement (the loop variables or body locals) — such a
	// reference makes a write per-iteration-keyed rather than last-writer-
	// wins, and a delete per-entry rather than global.
	loopLocal := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := objOf(info, id)
			if obj != nil && rng.Pos() <= obj.Pos() && obj.Pos() < rng.End() {
				found = true
			}
			return !found
		})
		return found
	}
	declaredOutside := func(id *ast.Ident) (types.Object, bool) {
		obj := info.Uses[id]
		if obj == nil {
			return nil, false
		}
		if obj.Pos() == token.NoPos || (rng.Pos() <= obj.Pos() && obj.Pos() < rng.End()) {
			return obj, false
		}
		// Package-level and closed-over objects both count as escaping.
		return obj, true
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			if s.callEmits(st) {
				r.reportf(st.Pos(), "packet emission inside range over map: iteration order is randomized per process and leaks into the message sequence; iterate a sorted snapshot instead (e.g. the sortedClogs idiom)")
				return true
			}
			if isBuiltinCall(info, st, "delete") && len(st.Args) == 2 {
				// delete keyed by a loop-derived value clears per-entry
				// state; any other delete mutates shared maps in map order.
				if !loopLocal(st.Args[1]) && !sameExpr(info, st.Args[0], rng.X) {
					r.reportf(st.Pos(), "delete with loop-independent key inside range over map: the surviving entry depends on iteration order")
				}
			}
		case *ast.AssignStmt:
			if st.Tok != token.ASSIGN {
				// := declares loop locals; op-assign (+=, |=, …) is
				// commutative accumulation and order-insensitive.
				return true
			}
			for i, lhs := range st.Lhs {
				var rhs ast.Expr
				if i < len(st.Rhs) {
					rhs = st.Rhs[i]
				}
				checkMapRangeStore(r, info, fn, rng, lhs, rhs, loopLocal, declaredOutside)
			}
		}
		return true
	})
}

// checkMapRangeStore vets one `lhs = rhs` inside a map-range body.
func checkMapRangeStore(r *reporter, info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt,
	lhs, rhs ast.Expr, loopLocal func(ast.Expr) bool, declaredOutside func(*ast.Ident) (types.Object, bool)) {

	if id, ok := lhs.(*ast.Ident); ok {
		obj, outside := declaredOutside(id)
		if !outside {
			return
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinCall(info, call, "append") {
			if sortedAfterLoop(info, fn, rng, obj) {
				return
			}
			r.reportf(lhs.Pos(), "append to %s inside range over map without a sort after the loop: element order follows the randomized iteration order; sort the slice before it escapes (sortedClogs idiom)", id.Name)
			return
		}
		r.reportf(lhs.Pos(), "order-dependent write to %s inside range over map: the surviving value depends on the randomized iteration order", id.Name)
		return
	}
	// Indexed and field stores are per-entry (deterministic) when the target
	// is keyed by a loop-derived value; otherwise the last writer wins in
	// map order.
	if loopLocal(lhs) {
		return
	}
	r.reportf(lhs.Pos(), "order-dependent store inside range over map: the target is not keyed by the loop variables, so the surviving value depends on iteration order")
}

// sortedAfterLoop reports whether fn sorts obj (a slice) after the range
// statement: a call to sort.* or slices.Sort* with obj as an argument whose
// position follows the loop. This is what makes the sorted-snapshot helpers
// (sortedClogs and friends) pass without annotations.
func sortedAfterLoop(info *types.Info, fn *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	if fn == nil || fn.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fnObj, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fnObj.Pkg() == nil {
			return true
		}
		if p := fnObj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// sameExpr reports whether two expressions statically denote the same
// variable (ident or selector chain resolving to the same objects).
func sameExpr(info *types.Info, a, b ast.Expr) bool {
	oa, ok1 := exprObj(info, a)
	ob, ok2 := exprObj(info, b)
	return ok1 && ok2 && oa == ob
}

func exprObj(info *types.Info, e ast.Expr) (types.Object, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o, true
		}
	case *ast.SelectorExpr:
		if o := info.Uses[e.Sel]; o != nil {
			return o, true
		}
	case *ast.ParenExpr:
		return exprObj(info, e.X)
	}
	return nil, false
}
