package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
)

// Idempotent checks that RPC handlers for retransmittable requests consult
// their dedup cache before the first side effect. The client resends every
// request until acked, so a handler reached twice must not re-execute: the
// PR 2/4 bug class was exactly a duplicate request re-appending WAL records
// and re-writing chunk state after the first execution already replied.
//
// A handler is a function named handle* taking a request struct that embeds
// wire.ReqCommon (the retransmittable-request marker). If the handler
// mutates state (the summary's mutates), then on its CFG every side effect
// (mutation or packet emission) must be dominated by a call to a function
// annotated:
//
//	//detlint:dedup-check
//
// in its doc comment (replayIfDuplicate, begin). Read-only handlers are
// exempt: replying twice with the same answer is harmless. A violation
// reports the first effect reachable from entry without passing a check.
var Idempotent = &analysis.Analyzer{
	Name:     "idempotent",
	Doc:      "check that mutating RPC handlers consult the dedup cache before their first side effect",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer, summaryAnalyzer},
	Run:      runIdempotent,
}

// isRetransmittableHandler reports whether fn is an RPC handler for a
// request type that embeds wire.ReqCommon.
func isRetransmittableHandler(info *types.Info, fn *ast.FuncDecl) bool {
	if !strings.HasPrefix(fn.Name.Name, "handle") {
		return false
	}
	for _, f := range fn.Type.Params.List {
		t := info.TypeOf(f.Type)
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		st, isStruct := typeUnder(t).(*types.Struct)
		if !isStruct {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if n, isNamed := st.Field(i).Type().(*types.Named); isNamed &&
				n.Obj().Name() == "ReqCommon" &&
				n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == conf.WirePackage {
				return true
			}
		}
	}
	return false
}

func runIdempotent(pass *analysis.Pass) (any, error) {
	if !pkgMatch(conf.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	s := summaryOf(pass)
	r := s.reporter(pass)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	for _, fn := range s.funcs {
		// A read-only handler is exempt: duplicate replies are harmless.
		if isRetransmittableHandler(s.info, fn) && s.mutates[s.funcObj(fn)] {
			checkIdempotent(r, s, cfgs.FuncDecl(fn), fn)
		}
	}
	return nil, nil
}

// checkIdempotent verifies one mutating handler's CFG: every effect must be
// dominated by a dedup-check call.
func checkIdempotent(r *reporter, s *summary, g *cfg.CFG, fn *ast.FuncDecl) {
	own := paramIndex(s.info, fn)
	var checks, effects []token.Pos
	inspectTop(fn.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				return
			}
			for _, lhs := range n.Lhs {
				if s.ownedMapIndex(lhs, own) {
					effects = append(effects, lhs.Pos())
				}
			}
		case *ast.CallExpr:
			if callee := calleeFunc(s.info, n); callee != nil && s.dedupCheck[callee] {
				checks = append(checks, n.Pos())
			} else if s.nodeMutates(n, own) || s.callEmits(n) {
				effects = append(effects, n.Pos())
			}
		}
	})

	if len(checks) == 0 {
		r.reportf(fn.Name.Pos(),
			"%s mutates state for a retransmittable RPC but never consults the dedup cache: a duplicate request re-executes the mutation (PR 2/4 re-execution class); call a //detlint:dedup-check helper first",
			fn.Name.Name)
		return
	}
	if bad := unguarded(g, checks, effects); len(bad) > 0 {
		r.reportf(slices.Min(bad),
			"side effect reachable before the dedup-cache check in %s: a retransmitted RPC re-executes it (PR 2/4 re-execution class); consult the //detlint:dedup-check helper on every path first",
			fn.Name.Name)
	}
}
