package detlint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// The maprange and walorder analyzers both need to know which calls emit
// packets. The roots are the runtime's own emission and scheduling methods
// (env.Proc.Send, env.Proc.Spawn, env.Sim.Spawn, env.Sim.After); sendGraph
// closes them over the package's static call graph so wrappers like
// server.reply count too.

// emissionMethods are the env-package method names treated as roots.
var emissionMethods = map[string]bool{
	"Send":  true,
	"Spawn": true,
	"After": true,
}

// sendGraph classifies the functions of one package by whether they
// (transitively, within the package) emit packets.
type sendGraph struct {
	pass *analysis.Pass
	// decls maps each package-level function or method to its declaration.
	decls map[*types.Func]*ast.FuncDecl
	// sendish holds functions that transitively reach an emission root.
	sendish map[*types.Func]bool
	// sendishClosure holds local variables bound to function literals that
	// transitively reach an emission root (e.g. `fail := func(...) {...}`
	// closures that reply to the client).
	sendishClosure map[*types.Var]bool
}

func newSendGraph(pass *analysis.Pass, files []*ast.File) *sendGraph {
	g := &sendGraph{
		pass:           pass,
		decls:          make(map[*types.Func]*ast.FuncDecl),
		sendish:        make(map[*types.Func]bool),
		sendishClosure: make(map[*types.Var]bool),
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					g.decls[obj] = fd
				}
			}
		}
	}
	// Fixpoint: a function is sendish if its body contains an emission root
	// call or a call to a sendish same-package function.
	for changed := true; changed; {
		changed = false
		for obj, fd := range g.decls {
			if g.sendish[obj] {
				continue
			}
			if g.bodyEmits(fd.Body) {
				g.sendish[obj] = true
				changed = true
			}
		}
	}
	// Closures: one pass after the function fixpoint (closures calling other
	// sendish closures are rare enough to leave to the next fixpoint round).
	for changed := true; changed; {
		changed = false
		for _, fd := range g.decls {
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
					v, ok := g.objOf(id).(*types.Var)
					if !ok || g.sendishClosure[v] {
						continue
					}
					if g.bodyEmits(lit.Body) {
						g.sendishClosure[v] = true
						changed = true
					}
				}
				return true
			})
		}
	}
	return g
}

func (g *sendGraph) objOf(id *ast.Ident) types.Object {
	if o := g.pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return g.pass.TypesInfo.Uses[id]
}

// bodyEmits reports whether any call in body (including nested function
// literals) is an emission per the current sendish sets.
func (g *sendGraph) bodyEmits(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && g.callEmits(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// callEmits reports whether one call expression emits: an env emission root,
// a sendish same-package function, or a sendish closure variable.
func (g *sendGraph) callEmits(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if obj, ok := g.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if isEmissionRoot(obj) || g.sendish[obj] {
				return true
			}
		}
	case *ast.Ident:
		switch obj := g.objOf(fun).(type) {
		case *types.Func:
			if isEmissionRoot(obj) || g.sendish[obj] {
				return true
			}
		case *types.Var:
			if g.sendishClosure[obj] {
				return true
			}
		}
	}
	return false
}

// isEmissionRoot reports whether obj is one of the env runtime's emission or
// scheduling methods.
func isEmissionRoot(obj *types.Func) bool {
	return obj.Pkg() != nil &&
		obj.Pkg().Path() == conf.EnvPackage &&
		emissionMethods[obj.Name()] &&
		obj.Type().(*types.Signature).Recv() != nil
}
