package lincheck

import (
	"fmt"
	"math"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/workload"
)

// CheckResult is the outcome of a linearizability search.
type CheckResult struct {
	// Ok reports that a legal linearization exists.
	Ok bool
	// Undecided reports that the search budget ran out before an answer —
	// callers must treat this as "no violation found", never as a violation.
	Undecided bool
	// Linearization holds the witness order (indices into the history) when
	// Ok.
	Linearization []int
	// States counts search states visited (diagnostics).
	States int
}

// maxHistory bounds a history for the bitmask-based search.
const maxHistory = 64

// searchBudget bounds visited states; generated histories stay far below it.
const searchBudget = 4 << 20

// Check runs the WGL/porcupine-style linearizability search: does some
// total order of the history's operations (a) respect real time — an
// operation that returned before another was invoked comes first — and (b)
// replay legally against the sequential Model?
//
// At-least-once ambiguity is modeled exactly like Replay's taint,
// in interval form:
//
//   - a timed-out operation has an open interval: it may linearize at any
//     point after its invocation (the request or a queued retransmission
//     executing late) or never (the request was lost) — both branches are
//     searched;
//   - a retransmitted mutation reporting EEXIST/ENOENT may instead have
//     succeeded on its first execution and observed its own effect on the
//     retry (a server crash discarded the dedup cache), so the success
//     interpretation is searched too.
func Check(h History) CheckResult {
	return CheckAgainst(NewModel(), h)
}

// CheckAgainst is Check with a caller-supplied starting model (seeded
// namespaces, or the deliberately-broken models of the mutation tests).
func CheckAgainst(m *Model, h History) CheckResult {
	h = expandGhosts(h)
	if len(h) > maxHistory {
		panic(fmt.Sprintf("lincheck: history of %d events exceeds the %d-event search limit",
			len(h), maxHistory))
	}
	c := &searcher{
		evs:    h,
		rets:   make([]env.Time, len(h)),
		pred:   make([]int, len(h)),
		memo:   make(map[string]struct{}),
		budget: searchBudget,
	}
	// pred[i] is the latest earlier event of the same client that gates i:
	// client programs are sequential, so i can never linearize before it.
	// Interval timestamps alone cannot encode this — back-to-back ops can
	// share an instant (Ret(prev) == Call(next)) and would read as
	// concurrent. Timed-out ops don't gate their successors (the client
	// moved on; the ghost effect floats free), and ghosts (client -1) are
	// unordered copies.
	last := map[int]int{}
	for i, e := range h {
		c.rets[i] = e.Ret
		if e.TimedOut {
			c.rets[i] = math.MaxInt64
		}
		c.pred[i] = -1
		if e.Client >= 0 {
			if j, ok := last[e.Client]; ok {
				c.pred[i] = j
			}
			if !e.TimedOut {
				last[e.Client] = i
			}
		}
	}
	ok := c.dfs(0, m)
	res := CheckResult{Ok: ok, States: searchBudget - c.budget}
	if ok {
		res.Linearization = append([]int(nil), c.order...)
	} else if c.exhausted {
		res.Undecided = true
		res.Ok = true // no violation demonstrated
	}
	return res
}

type searcher struct {
	evs       History
	rets      []env.Time
	pred      []int // same-client program-order gate, -1 when none
	memo      map[string]struct{}
	budget    int
	exhausted bool
	order     []int
}

func (c *searcher) dfs(mask uint64, m *Model) bool {
	if mask == uint64(1)<<len(c.evs)-1 {
		return true
	}
	if c.budget <= 0 {
		c.exhausted = true
		return false
	}
	c.budget--
	key := fmt.Sprintf("%x|%s", mask, m.Key())
	if _, seen := c.memo[key]; seen {
		return false
	}

	// An operation may linearize next iff nothing unlinearized returned
	// strictly before it was invoked.
	minRet := env.Time(math.MaxInt64)
	for i := range c.evs {
		if mask&(1<<i) == 0 && c.rets[i] < minRet {
			minRet = c.rets[i]
		}
	}
	for i := range c.evs {
		if mask&(1<<i) != 0 || c.evs[i].Call > minRet {
			continue
		}
		if j := c.pred[i]; j >= 0 && mask&(1<<j) == 0 {
			continue // an earlier op of the same client is still unlinearized
		}
		e := c.evs[i]
		bit := uint64(1) << i
		try := func(nm *Model) bool {
			c.order = append(c.order, i)
			if c.dfs(mask|bit, nm) {
				return true
			}
			c.order = c.order[:len(c.order)-1]
			return false
		}
		if e.TimedOut {
			// Branch 1: the request never executed.
			if try(m) {
				return true
			}
			// Branch 2: it executed here (result unobserved).
			m2 := m.Clone()
			m2.Apply(e.Op)
			if try(m2) {
				return true
			}
			continue
		}
		m2 := m.Clone()
		if outcomeMatches(e.Op, e.Out, m2.Apply(e.Op)) && try(m2) {
			return true
		}
		if e.Resent && resentAmbiguous(e) {
			// The error may be the retry observing the first execution's own
			// effect: linearize the op here as a success.
			m3 := m.Clone()
			if m3.Apply(e.Op).Err == nil && try(m3) {
				return true
			}
		}
	}
	c.memo[key] = struct{}{}
	return false
}

// expandGhosts adds one skippable ghost copy of every timed-out mutation:
// at-least-once delivery means a retransmission can re-execute after a
// server crash discarded the dedup cache, so a gave-up create/delete/rename
// can apply twice — e.g. a ghost create re-appearing after another client's
// acknowledged delete. One extra copy models the double execution; further
// copies are theoretically possible but require each re-execution to be
// separately observed between cache losses.
func expandGhosts(h History) History {
	var ghosts History
	for _, e := range h {
		if e.TimedOut && isMutation(e.Op.Kind) {
			g := e
			g.Client = -1
			ghosts = append(ghosts, g)
		}
	}
	if len(ghosts) == 0 {
		return h
	}
	return append(append(History(nil), h...), ghosts...)
}

func isMutation(k core.Op) bool {
	switch k {
	case core.OpCreate, core.OpMkdir, core.OpDelete, core.OpRmdir,
		core.OpRename, core.OpLink, core.OpChmod:
		return true
	}
	return false
}

// resentAmbiguous reports whether a retransmitted mutation's error can mask
// an earlier successful execution (a server crash discarded the dedup
// cache, the retry re-executed against the changed namespace). Any error
// qualifies, not just the op's own-effect signature: a resent link can see
// ENOENT after another client deleted the source its first execution
// succeeded from, a resent rename EEXIST after the source was recreated,
// a resent rmdir ENOTEMPTY after the removed directory was rebuilt — in
// every case the first execution's success is a legal interpretation.
func resentAmbiguous(e Event) bool {
	return isMutation(e.Op.Kind) && e.Out.Err != nil
}

// outcomeMatches compares an observed outcome with the model's, field by
// meaningful field:
//
//   - stat/open compare type and perm but not size — a plain stat of a
//     directory reads the inode without aggregating, so its size may
//     legitimately lag deferred updates (§5.2.2 aggregates on statdir only);
//   - statdir compares type, perm and the aggregated entry count;
//   - readdir compares entry names and types; dentry perms are snapshots
//     from creation time (chmod updates the inode, not the dentry) and are
//     not modeled;
//   - everything else compares the error alone.
func outcomeMatches(op workload.Op, observed, modeled workload.Outcome) bool {
	if !sameErr(observed.Err, modeled.Err) {
		return false
	}
	if observed.Err != nil {
		return true
	}
	switch op.Kind {
	case core.OpStat, core.OpOpen:
		return observed.Attr.Type == modeled.Attr.Type &&
			observed.Attr.Perm == modeled.Attr.Perm
	case core.OpStatDir:
		return observed.Attr.Type == modeled.Attr.Type &&
			observed.Attr.Perm == modeled.Attr.Perm &&
			observed.Attr.Size == modeled.Attr.Size
	case core.OpReadDir:
		obs, mod := workload.SortEntries(observed.Entries), workload.SortEntries(modeled.Entries)
		if len(obs) != len(mod) {
			return false
		}
		for i := range obs {
			if obs[i].Name != mod[i].Name || obs[i].Type != mod[i].Type {
				return false
			}
		}
		return true
	default:
		return true
	}
}
