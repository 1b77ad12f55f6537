package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
)

// Lockpair checks, on every function's control-flow graph, that a sim lock
// acquired in the function — env.Mutex.Lock, env.RWMutex.Lock/RLock,
// env.Semaphore.Acquire, including the 2PC per-key locks in
// internal/server/txn.go (they are env.Mutex fields) — is released on every
// path that returns. A path from the acquire to a return statement that
// passes no matching release is the PR 5 bug class: a prepare handler that
// gives up (dedup miss, ancestor check, crash-injection branch) while still
// holding key locks wedges every later transaction on those keys, and under
// the simulator nothing ever times it out.
//
// Releases are recognised in four shapes:
//
//   - a direct call: kl.Unlock(), st.mu.RUnlock(), cores.Release()
//   - a deferred call: defer kl.Unlock() (counted where the defer runs)
//   - a same-package helper that releases one of its parameters or its
//     receiver (transitively): syncCommit(p, req, parentLog, …, kl, …)
//   - a local closure that releases captured locks, directly or through such
//     a helper: fail := func(){s.unlockKey(kl)}
//
// Lock/RLock and Unlock/RUnlock on the same lock object are treated as one
// class: which mode a branch took is path-sensitive, pairing is not.
//
// Functions that intentionally hand a held lock to another process or return
// it to the caller (lockTxnKeys, runAggregation) declare it:
//
//	//detlint:lock-escapes <reason>
//
// in the function's doc comment; the reason is mandatory (detdirective).
var Lockpair = &analysis.Analyzer{
	Name:     "lockpair",
	Doc:      "check that sim locks are released on every return path",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer, summaryAnalyzer},
	Run:      runLockpair,
}

// envAcquireMethods / envReleaseMethods are the env lock-class method names.
var (
	envAcquireMethods = map[string]bool{"Lock": true, "RLock": true, "Acquire": true}
	envReleaseMethods = map[string]bool{"Unlock": true, "RUnlock": true, "Release": true}
	envLockTypes      = map[string]bool{"Mutex": true, "RWMutex": true, "Semaphore": true}
)

// envLockCall classifies call as an acquire or release of an env lock and
// returns the receiver expression (the lock).
func envLockCall(info *types.Info, call *ast.CallExpr) (lock ast.Expr, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	obj, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || !isMethodOf(obj, conf.EnvPackage) || !envLockTypes[recvTypeName(obj.Type().(*types.Signature))] {
		return nil, false, false
	}
	switch {
	case envAcquireMethods[obj.Name()]:
		return sel.X, true, true
	case envReleaseMethods[obj.Name()]:
		return sel.X, false, true
	}
	return nil, false, false
}

// lockRef names a lock by the variable it is reachable from plus the selector
// path to it: kl → (kl, ""); parentLog.lock → (parentLog, ".lock");
// s.locks[h] → (s, ".locks.[]"). Index expressions collapse to one key per
// base — coarse, but pairing is per-object anyway and the roots in tree are
// plain selector chains.
type lockRef struct {
	root types.Object
	path string
}

// lockRefOf resolves expr to a lockRef. Unkeyable expressions (call results
// used inline, channel receives) return ok=false and are not checked.
func lockRefOf(info *types.Info, expr ast.Expr) (lockRef, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, isVar := objOf(info, e).(*types.Var); isVar {
			return lockRef{root: v}, true
		}
	case *ast.SelectorExpr:
		// Package-qualified variable: pkg.Var.
		if x, isIdent := ast.Unparen(e.X).(*ast.Ident); isIdent {
			if _, isPkg := info.Uses[x].(*types.PkgName); isPkg {
				if v, isVar := info.Uses[e.Sel].(*types.Var); isVar {
					return lockRef{root: v}, true
				}
				return lockRef{}, false
			}
		}
		base, ok := lockRefOf(info, e.X)
		if !ok {
			return lockRef{}, false
		}
		return lockRef{root: base.root, path: base.path + "." + e.Sel.Name}, true
	case *ast.IndexExpr:
		base, ok := lockRefOf(info, e.X)
		if !ok {
			return lockRef{}, false
		}
		return lockRef{root: base.root, path: base.path + ".[]"}, true
	case *ast.StarExpr:
		return lockRefOf(info, e.X)
	}
	return lockRef{}, false
}

// releaseEvent is one point in a function body that releases locks. Exact
// events release one lockRef; prefix events (helper calls handed a struct
// containing locks) release every lock reachable from the ref.
type releaseEvent struct {
	pos    token.Pos
	ref    lockRef
	prefix bool
}

func (ev releaseEvent) matches(ref lockRef) bool {
	if ev.ref.root != ref.root {
		return false
	}
	if ev.prefix {
		return strings.HasPrefix(ref.path, ev.ref.path)
	}
	return ev.ref.path == ref.path
}

func runLockpair(pass *analysis.Pass) (any, error) {
	if !pkgMatch(conf.SimPackages, pass.Pkg.Path()) {
		return nil, nil
	}
	s := summaryOf(pass)
	r := s.reporter(pass)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	for _, fn := range s.funcs {
		if _, escapes := funcLockEscapes(fn); escapes {
			continue
		}
		checkLockPairing(r, s, cfgs.FuncDecl(fn), fn.Body, fn.Name.Name)
		// Function literals have their own CFG and their own pairing
		// obligation (spawned process bodies, retry loops).
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, isLit := n.(*ast.FuncLit); isLit {
				if g := cfgs.FuncLit(lit); g != nil {
					checkLockPairing(r, s, g, lit.Body, "function literal")
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkLockPairing verifies one function body against its CFG.
func checkLockPairing(r *reporter, s *summary, g *cfg.CFG, body *ast.BlockStmt, name string) {
	type acquireSite struct {
		call *ast.CallExpr
		ref  lockRef
	}
	var acquires []acquireSite
	var releases []releaseEvent

	// closureReleases maps local closure variables to the releases their
	// bodies make of captured locks, directly or through a helper: a call to
	// the variable is each of those release events (the handleMutate
	// fail-closure pattern).
	closureReleases := make(map[types.Object][]releaseEvent)

	// Walk the top level of the body: nested literals are separate CFGs and
	// are checked on their own. A deferred call runs at every return; for
	// pairing it is a release from its registration point onward.
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, rhs := range m.Rhs {
				lit, isLit := rhs.(*ast.FuncLit)
				if !isLit || i >= len(m.Lhs) {
					continue
				}
				id, isIdent := m.Lhs[i].(*ast.Ident)
				if !isIdent {
					continue
				}
				obj := objOf(s.info, id)
				if obj == nil {
					continue
				}
				eachCall(lit.Body, func(k *ast.CallExpr) {
					if lock, acquire, isLock := envLockCall(s.info, k); isLock {
						if ref, keyable := lockRefOf(s.info, lock); keyable && !acquire {
							closureReleases[obj] = append(closureReleases[obj], releaseEvent{ref: ref})
						}
						return
					}
					for _, ref := range s.helperReleaseRefs(k) {
						closureReleases[obj] = append(closureReleases[obj], releaseEvent{ref: ref, prefix: true})
					}
				})
			}
		case *ast.CallExpr:
			if lock, acquire, isLock := envLockCall(s.info, m); isLock {
				if ref, keyable := lockRefOf(s.info, lock); keyable && acquire {
					acquires = append(acquires, acquireSite{call: m, ref: ref})
				} else if keyable {
					releases = append(releases, releaseEvent{pos: m.Pos(), ref: ref})
				}
				return true
			}
			if fun, isIdent := m.Fun.(*ast.Ident); isIdent {
				for _, ev := range closureReleases[s.info.Uses[fun]] {
					ev.pos = m.Pos()
					releases = append(releases, ev)
				}
			}
			for _, ref := range s.helperReleaseRefs(m) {
				releases = append(releases, releaseEvent{pos: m.Pos(), ref: ref, prefix: true})
			}
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	releaseIn := make(map[*cfg.Block][]releaseEvent)
	for _, ev := range releases {
		if b := blockAt(g, ev.pos); b != nil {
			releaseIn[b] = append(releaseIn[b], ev)
		}
	}
	releasesAfter := func(b *cfg.Block, ref lockRef, after token.Pos) bool {
		for _, ev := range releaseIn[b] {
			if ev.pos > after && ev.matches(ref) {
				return true
			}
		}
		return false
	}
	for _, a := range acquires {
		b := blockAt(g, a.call.Pos())
		// Unreachable code, or released in the acquire's own straight-line tail.
		if b == nil || releasesAfter(b, a.ref, a.call.Pos()) {
			continue
		}
		// A return reachable without passing a release leaks; a panic or
		// no-return exit does not.
		released := func(blk *cfg.Block) bool { return blk != b && releasesAfter(blk, a.ref, token.NoPos) }
		for blk := range reachable(b, released) {
			if !released(blk) && len(blk.Succs) == 0 && blk.Return() != nil {
				r.reportf(a.call.Pos(),
					"lock acquired here is still held on a return path of %s: release it on every path or annotate the function //detlint:lock-escapes <reason> (2PC lock-leak class)",
					name)
				break
			}
		}
	}
}
