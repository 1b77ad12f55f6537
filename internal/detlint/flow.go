package detlint

import (
	"go/token"

	"golang.org/x/tools/go/cfg"
)

// The CFG questions lockpair asks of one function: which block holds this
// position, and which blocks can a path reach from here without passing a
// guard (a lock release).

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
