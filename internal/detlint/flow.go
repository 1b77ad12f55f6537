package detlint

import (
	"go/ast"
	"go/token"
	"slices"

	"golang.org/x/tools/go/cfg"
)

// The CFG questions walorder, idempotent and lockpair ask of one function:
// which block holds this position, and which blocks can a path reach from
// here without passing a guard (a WAL append, a dedup-cache check, a lock
// release).

// blockAt returns the block of g whose nodes contain pos, or nil when pos is
// in code the CFG omits (unreachable statements, nested function literals).
func blockAt(g *cfg.CFG, pos token.Pos) *cfg.Block {
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				return b
			}
		}
	}
	return nil
}

// reachable returns the blocks some path from `from` reaches without leaving
// a block for which stop reports true: stop blocks are reached, not passed.
func reachable(from *cfg.Block, stop func(*cfg.Block) bool) map[*cfg.Block]bool {
	seen := map[*cfg.Block]bool{from: true}
	for work := []*cfg.Block{from}; len(work) > 0; {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if stop(b) {
			continue
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// unguarded returns the effects, in the order given, that a path from g's
// entry reaches before any guard: the effect's block is reachable through
// guard-free blocks and no guard precedes the effect inside it.
func unguarded(g *cfg.CFG, guards, effects []token.Pos) []token.Pos {
	if len(g.Blocks) == 0 {
		return nil
	}
	guardsIn := make(map[*cfg.Block][]token.Pos)
	for _, p := range guards {
		if b := blockAt(g, p); b != nil {
			guardsIn[b] = append(guardsIn[b], p)
		}
	}
	reach := reachable(g.Blocks[0], func(b *cfg.Block) bool { return len(guardsIn[b]) > 0 })
	var out []token.Pos
	for _, e := range effects {
		b := blockAt(g, e)
		if b != nil && reach[b] && !slices.ContainsFunc(guardsIn[b], func(p token.Pos) bool { return p < e }) {
			out = append(out, e)
		}
	}
	return out
}

// inspectTop is ast.Inspect over the statements a function's own CFG
// orders: nested function literals run on their own schedule (a spawned
// process, a retry loop) and deferred calls run at return, after every
// effect on the path, so both are skipped.
func inspectTop(body ast.Node, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		f(n)
		return true
	})
}
