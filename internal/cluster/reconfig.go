package cluster

import (
	"fmt"

	"switchfs/internal/env"
	"switchfs/internal/ring"
)

// reconfigPasses bounds the live convergence loop before Reconfigure falls
// back to briefly quiescing the stragglers (continuous load can keep landing
// new records on a to-be-removed slot faster than a pass retires them).
const reconfigPasses = 20

// Reconfigure grows (or shrinks) the metadata cluster as a bulk case of the
// staged gate-and-drain migration (§5.5/§A.3):
//
//  1. new servers (on grow) join serving immediately; every server and switch
//     learns the union peer set;
//  2. a convergence loop diffs each server's stored fingerprints against the
//     target placement and migrates each mismatched group through MigrateFP —
//     one group at a time, the rest of the cluster serving throughout;
//  3. a pass that finds nothing to move runs without parking, so the ring's
//     base placement flips to the target (Ring.Reset, clearing the
//     per-group overrides that accumulated) in the same simulator event —
//     no request can observe the flip half-applied;
//  4. on shrink, each removed server then stops serving, drains its in-flight
//     aggregations (bounded by the aggregation give-up budget, re-checking
//     liveness — a fail-stopped server has nothing left to drain), pushes its
//     remaining change-log entries to their owners, and retires.
//
// If the convergence loop exhausts its passes (adversarial load), the
// stragglers are retired under a brief quiesce — the window covers only the
// leftover groups, not the migration itself. If even the quiesced passes
// cannot converge (a group wedged behind an unresolvable prepared
// transaction), the reconfiguration aborts with an error through the future
// instead of finalizing against a placement that was never installed.
//
// The returned future completes with the virtual duration. Servers
// fail-stopping mid-reconfiguration are tolerated: MigrateFP copies from a
// down server's store (which mirrors the WAL it will replay, provided no
// prepared-but-undecided transaction straddles the group — such groups wait
// for the source to recover) and completes the eviction in that WAL, so the
// recovered incarnation does not resurrect migrated groups; RecoverServer
// defers its swap until the reconfiguration ends.
func (c *Cluster) Reconfigure(newServers int) *env.Future {
	fut := env.NewFuture()
	if newServers < 1 {
		fut.Complete(fmt.Errorf("cluster: cannot reconfigure to %d servers", newServers))
		return fut
	}
	c.Env.Spawn(c.Servers[0].ID(), func(p *env.Proc) {
		start := p.Now()
		c.reconfiguring = true
		old := len(c.Servers)

		slots := make([]uint32, newServers)
		for i := range slots {
			slots[i] = uint32(i)
		}
		finalPeers := serverIDs(newServers)
		// Union peer set for the transition: every server that may hold
		// change-log entries or receive migrated groups stays addressable.
		unionPeers := serverIDs(max(old, newServers))

		// New servers join serving immediately (their stores fill through
		// migration; requests for not-yet-moved groups park on the arrival
		// gates or retry against the source).
		if newServers > old {
			c.Opts.Servers = newServers
			for i := old; i < newServers; i++ {
				c.addServer(i)
			}
			if newServers > c.maxServers {
				c.maxServers = newServers
			}
		}
		for i := 0; i < old && i < len(c.Servers); i++ {
			c.Servers[i].SetPeers(unionPeers)
		}
		for _, sw := range c.Switches {
			sw.SetServers(unionPeers)
		}

		// Convergence: migrate every group whose target owner differs, one at
		// a time, while the cluster serves.
		target := ring.New(slots, 0, ServerOf)
		converged := false
		for pass := 0; pass < reconfigPasses; pass++ {
			if c.convergePass(p, target) {
				converged = true
				break
			}
			p.Sleep(migratePollStep)
		}
		if !converged {
			// Adversarial load kept creating records on moving slots faster
			// than passes retired them. Quiesce briefly and retire the tail.
			for _, srv := range c.Servers {
				srv.SetServing(false)
			}
			for i := 0; i < len(c.Servers); i++ {
				if !c.Servers[i].Node().Down() {
					c.Servers[i].DrainAggs(p)
				}
			}
			for pass := 0; pass < reconfigPasses; pass++ {
				if c.convergePass(p, target) {
					converged = true
					break
				}
				p.Sleep(migratePollStep)
			}
			for _, srv := range c.Servers {
				srv.SetServing(true)
			}
		}
		if !converged {
			// Even quiesced, some group never migrated — e.g. wedged behind a
			// prepared transaction whose coordinator is crashed, the blocking
			// case MigrateFP's drain deadline surfaces. Finalizing anyway
			// would crash removed servers and truncate c.Servers while the
			// un-reset base placement keeps routing the stragglers to
			// now-dead slots. Abort instead: every server keeps serving under
			// the union peer set, the accumulated overrides keep every
			// already-moved group reachable, and the caller can reconfigure
			// again once the wedge resolves.
			c.reconfiguring = false
			fut.Complete(fmt.Errorf(
				"cluster: reconfigure to %d servers: convergence stalled (groups wedged behind unresolved transactions)",
				newServers))
			return
		}
		// convergePass returned true from a park-free sweep that also Reset
		// the ring in the same event — the base placement is now the target.

		// Shrink finalization: retire the removed servers.
		if newServers < old {
			removed := c.Servers[newServers:]
			for _, srv := range removed {
				srv.SetServing(false)
			}
			// Survivors stop multicasting to the leaving peers before those
			// crash, so no aggregation fetch waits on a permanently-dead peer.
			for i := 0; i < newServers; i++ {
				c.Servers[i].SetPeers(finalPeers)
			}
			for _, sw := range c.Switches {
				sw.SetServers(finalPeers)
			}
			for _, srv := range removed {
				if srv.Node().Down() {
					continue // nothing volatile left; its groups already moved
				}
				// The drain re-checks liveness and is bounded by the
				// aggregation give-up budget instead of busy-waiting on a
				// server that may never quiesce.
				srv.DrainAggs(p)
				// Remaining change-log entries must reach their owners now —
				// no recovery will ever replay this WAL.
				srv.FlushAll(p)
				srv.Crash()
			}
			c.Servers = c.Servers[:newServers]
			c.Opts.Servers = newServers
		} else {
			for i := range c.Servers {
				c.Servers[i].SetPeers(finalPeers)
			}
			for _, sw := range c.Switches {
				sw.SetServers(finalPeers)
			}
		}

		c.reconfiguring = false
		fut.Complete(p.Now() - start)
	})
	return fut
}

// convergePass sweeps every server's stored fingerprints against the target
// placement and migrates each group the current ring still routes to a
// mismatched slot. A pass that finds nothing to move runs without parking and
// flips the ring's base placement to the target in the same event (clearing
// the accumulated overrides, whose destinations equal the target owners by
// construction — the mapping of every existing group is unchanged by the
// flip). Reports whether the flip happened.
func (c *Cluster) convergePass(p *env.Proc, target *ring.Ring) bool {
	pending := 0
	for i := 0; i < len(c.Servers); i++ {
		for _, fp := range c.Servers[i].StoredFingerprints() {
			if c.Ring.OwnerOf(fp) != uint32(i) {
				// Not the current owner — the owning slot's sweep moves it
				// (or it is an unreachable stale copy awaiting eviction).
				continue
			}
			want := target.OwnerOf(fp)
			if want == uint32(i) {
				continue
			}
			pending++
			if err := c.MigrateFP(p, fp, want); err != nil {
				// Leave it for the next pass (e.g. a prepared transaction
				// still terminating).
				continue
			}
		}
	}
	if pending == 0 {
		c.Ring.Reset(target.Slots())
		return true
	}
	return false
}
