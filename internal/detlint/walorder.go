package detlint

import (
	"go/ast"
	"go/token"

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
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer, summaryAnalyzer},
	Run:      runWalorder,
}

func runWalorder(pass *analysis.Pass) (any, error) {
	s := summaryOf(pass)
	r := s.reporter(pass)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	for _, fn := range s.funcs {
		for _, dir := range funcWalSendDirectives(fn) {
			if dir.bad == "" { // detdirective reports the parse problem
				checkWalOrder(r, s, cfgs.FuncDecl(fn), fn, dir)
			}
		}
	}
	return nil, nil
}

// checkWalOrder verifies one annotation on one function.
func checkWalOrder(r *reporter, s *summary, g *cfg.CFG, fn *ast.FuncDecl, dir walSendDirective) {
	viaSeen := make(map[string]bool)
	for _, v := range dir.via {
		viaSeen[v] = false
	}
	var appends, sends []token.Pos
	inspectTop(fn.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		isSend := s.callEmits(call)
		if len(viaSeen) > 0 {
			_, isSend = viaSeen[calleeName(call)]
			if isSend {
				viaSeen[calleeName(call)] = true
			}
		}
		if s.appendsRecord(call, dir.record) {
			appends = append(appends, call.Pos())
		} else if isSend {
			sends = append(sends, call.Pos())
		}
	})

	// Annotation-level problems anchor on the function name: the directive
	// comment line cannot carry a trailing suppression, the declaration can.
	if len(appends) == 0 {
		r.reportf(fn.Name.Pos(), "wal-before-send: %s never appends WAL record %s (directly or via a helper)", fn.Name.Name, dir.record)
		return
	}
	for _, v := range dir.via {
		if !viaSeen[v] {
			r.reportf(fn.Name.Pos(), "wal-before-send: via target %q is never called in %s", v, fn.Name.Name)
		}
	}
	for _, pos := range unguarded(g, appends, sends) {
		r.reportf(pos,
			"packet emission reachable before the %s WAL append: a crash between this send and the append makes the receiver act on a decision the restarted server never re-derives (wal-before-send on %s)",
			dir.record, fn.Name.Name)
	}
}
