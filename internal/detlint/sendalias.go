package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
)

// Sendalias flags writes to a wire-typed value after it has been passed to a
// packet emission (env.Proc.Send directly, or any sendish wrapper per the
// send graph). Once a *wire.Packet crosses Send, the simulator owns it: the
// switch may still be forwarding it, a retransmission loop may re-deliver
// it, and the trace recorder has stamped it. Mutating it afterwards is the
// PR 8 copy-before-stamp bug class — the in-flight copy and the sender's
// copy silently diverge, and which one the receiver sees depends on delivery
// order. The fix is always the same: copy the packet (out := *pkt) and
// mutate the copy.
//
// The analysis is a forward may-analysis per function body: an emitting call
// marks the base variable of every wire-typed argument (wire.Packet,
// wire.Msg, or any type declared in the wire package — &out.pkt marks out
// even when out's own type lives elsewhere); a later write through a marked
// variable is a diagnostic; rebinding the whole variable clears the mark.
// Block states iterate to fixpoint, so a retry loop that stamps the packet
// between sends is caught across the back edge while build-once-resend
// calls (ctlCall, deliver) stay clean.
var Sendalias = &analysis.Analyzer{
	Name:     "sendalias",
	Doc:      "flag writes to a wire packet after it was passed to Send",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer, summaryAnalyzer},
	Run:      runSendalias,
}

func runSendalias(pass *analysis.Pass) (any, error) {
	if !pkgMatch(conf.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	s := summaryOf(pass)
	r := s.reporter(pass)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	for _, fn := range s.funcs {
		checkSendAlias(r, s, cfgs.FuncDecl(fn))
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, isLit := n.(*ast.FuncLit); isLit {
				if graph := cfgs.FuncLit(lit); graph != nil {
					checkSendAlias(r, s, graph)
				}
			}
			return true
		})
	}
	return nil, nil
}

// isWireType reports whether t is declared in (or points to a type declared
// in) the configured wire package.
func isWireType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == conf.WirePackage
}

// sentState is the per-block may-analysis state: variables holding (or
// containing) a wire value that has crossed an emission call.
type sentState map[*types.Var]bool

func (s sentState) clone() sentState {
	out := make(sentState, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

func (s sentState) equal(o sentState) bool {
	if len(s) != len(o) {
		return false
	}
	for v := range s {
		if !o[v] {
			return false
		}
	}
	return true
}

// checkSendAlias runs the dataflow over one CFG. The first fixpoint rounds
// only propagate; a final pass over stable states reports.
func checkSendAlias(r *reporter, s *summary, graph *cfg.CFG) {
	if len(graph.Blocks) == 0 {
		return
	}

	// transfer applies one block's nodes to state; when report is set, writes
	// through marked variables are diagnosed.
	reported := make(map[token.Pos]bool)
	var applyNode func(n ast.Node, state sentState, report bool)
	markWrite := func(lhs ast.Expr, state sentState, report bool) {
		switch target := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if v, isVar := objOf(s.info, target).(*types.Var); isVar {
				delete(state, v) // whole-variable rebinding: fresh value
			}
		default:
			if v := baseVarOf(s.info, lhs); v != nil && state[v] {
				if report && !reported[lhs.Pos()] {
					reported[lhs.Pos()] = true
					r.reportf(lhs.Pos(),
						"write to a packet that was already passed to Send: the in-flight copy and this one diverge; copy before mutating (out := *pkt) — PR 8 copy-before-stamp class")
				}
			}
		}
	}
	applyNode = func(n ast.Node, state sentState, report bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // separate CFG, separate obligation
			case *ast.AssignStmt:
				for _, rhs := range m.Rhs {
					applyNode(rhs, state, report)
				}
				for _, lhs := range m.Lhs {
					markWrite(lhs, state, report)
				}
				return false
			case *ast.IncDecStmt:
				markWrite(m.X, state, report)
				return false
			case *ast.CallExpr:
				for _, arg := range m.Args {
					applyNode(arg, state, report)
				}
				if s.callEmits(m) {
					for _, arg := range m.Args {
						if isWireType(s.info.TypeOf(arg)) {
							if v := baseVarOf(s.info, arg); v != nil {
								state[v] = true
							}
						}
					}
				}
				return false
			}
			return true
		})
	}

	in := make(map[*cfg.Block]sentState)
	for _, b := range graph.Blocks {
		in[b] = sentState{}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range graph.Blocks {
			state := in[b].clone()
			for _, n := range b.Nodes {
				applyNode(n, state, false)
			}
			for _, succ := range b.Succs {
				merged := in[succ].clone()
				for v := range state {
					merged[v] = true
				}
				if !merged.equal(in[succ]) {
					in[succ] = merged
					changed = true
				}
			}
		}
	}
	for _, b := range graph.Blocks {
		state := in[b].clone()
		for _, n := range b.Nodes {
			applyNode(n, state, true)
		}
	}
}
