package cluster

import (
	"fmt"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/server"
)

// Live fingerprint-group migration and the hot-directory balancer (§5.5
// elastic resharding). A migration moves ONE group through the servers'
// gate-and-drain protocol while the rest of the cluster keeps serving:
//
//  1. the destination installs an arrival gate (BlockFP) and the ring pins
//     the group there (SetOverride) — both in one simulator event, so no
//     request can route to the destination before the gate exists;
//  2. the source stops admitting new requests the instant the override lands
//     (its ownership check fails → ErrRetry → clients re-resolve), while
//     requests admitted earlier drain under their busy references;
//  3. once the source is FPQuiescent it delivers the deferred directory
//     updates it logged for names of the group (FlushGroup): a name's updates
//     live only at the name's owner, so none stays behind;
//  4. quiescent still, the copy+evict runs in one event;
//  5. UnblockFP releases the gate and the destination serves.

const (
	// migratePollStep is the quiescence poll interval.
	migratePollStep = 100 * env.Microsecond
	// migrateBudget bounds the drain wait. It must outlast the slowest thing
	// a busy reference can cover: a prepared transaction's termination
	// protocol against a live coordinator (a few retry timeouts) and an
	// aggregation that gives up on an unreachable peer (maxTries ×
	// RetryTimeout ≈ 200ms at defaults).
	migrateBudget = 250 * env.Millisecond
	// rebalanceMinGap is the absolute op-count spread below which the
	// balancer does not act (noise floor).
	rebalanceMinGap = 16
)

// MigrateFP moves one fingerprint group to dstSlot through the gate-and-drain
// protocol, without quiescing anything else. Returns nil when the group
// landed (or already lives there); on a drain timeout the override rolls back
// and the source keeps serving the group.
func (c *Cluster) MigrateFP(p *env.Proc, fp core.Fingerprint, dstSlot uint32) error {
	srcSlot := c.Ring.OwnerOf(fp)
	if srcSlot == dstSlot {
		return nil
	}
	if int(dstSlot) >= len(c.Servers) || int(srcSlot) >= len(c.Servers) {
		return fmt.Errorf("cluster: migrate %v: slot out of range (src %d, dst %d)",
			fp, srcSlot, dstSlot)
	}
	dst := c.Servers[int(dstSlot)]

	// Gate first, then pin — same event: a request racing the override can
	// reach the destination only after the gate exists.
	dst.BlockFP(fp)
	c.Ring.SetOverride(fp, dstSlot)

	deadline := p.Now() + migrateBudget
	for {
		// Re-fetch the source each iteration: a concurrent RecoverServer
		// swaps in a fresh incarnation under the same slot.
		src := c.Servers[int(srcSlot)]
		if src.Node().Down() {
			// Fail-stopped source: its volatile references died with the
			// incarnation and its store mirrors the WAL — with one durable
			// exception. A prepared-but-undecided 2PC record (recTxnPrepare)
			// survives the crash: recovery re-registers it and the decision
			// later applies its ops to THIS store, so copying the group out
			// now would strand the committed effects on the evicted copy
			// while the destination never sees them. Such a group is not
			// quiescent until the source recovers and the transaction
			// resolves — keep polling (a concurrent RecoverServer swaps in
			// the fresh incarnation) and let the deadline roll the override
			// back if recovery never comes.
			if !src.PreparedTxnOnFPInWAL(fp) {
				// No prepared state straddles the group: copy directly; the
				// eviction below lands in its (surviving) WAL, so a later
				// recovery replays the group and then drops it instead of
				// resurrecting a stale copy.
				copyGroup(src, dst, fp)
				c.moves++
				src.EvictMigrated(fp)
				dst.UnblockFP(fp)
				return nil
			}
		} else if src.FPQuiescent(fp) && src.FlushGroup(p, fp) && src.FPQuiescent(fp) {
			// The flush parks only when the source held updates of the group,
			// and none can appear after it: the source admits nothing for the
			// group anymore. The last poll, copy and evict share this event —
			// atomic with respect to traffic, so the quiescence answer cannot
			// go stale under it.
			copyGroup(src, dst, fp)
			c.moves++
			src.EvictMigrated(fp)
			dst.UnblockFP(fp)
			return nil
		}
		if p.Now() >= deadline {
			// Drain wedged (e.g. a prepared transaction blocked on a crashed,
			// unrecovered coordinator). Roll the override back and release
			// the gate; waiters re-check ownership and route to the source.
			c.Ring.ClearOverride(fp)
			dst.UnblockFP(fp)
			return fmt.Errorf("cluster: migrate %v: source %d never quiesced", fp, srcSlot)
		}
		p.Sleep(migratePollStep)
	}
}

// copyGroup copies one fingerprint group — inodes, and for directories their
// entry lists and exactly-once watermarks — into dst's store, WAL-logged on
// the receiving side. Runs in one event (no parks). Returns records copied.
func copyGroup(src, dst *server.Server, fp core.Fingerprint) int {
	type rec struct {
		key core.Key
		in  *core.Inode
	}
	var inodes []rec
	src.KV().Scan(nil, func(k, v []byte) bool {
		key, err := core.DecodeKey(k)
		if err != nil {
			return true // dentries move with their directory below
		}
		if key.Fingerprint() != fp {
			return true
		}
		in, err := core.DecodeInode(v)
		if err != nil {
			return true
		}
		inodes = append(inodes, rec{key: key, in: in})
		return true
	})
	moved := 0
	for _, r := range inodes {
		dst.InjectInode(r.key, r.in, true)
		moved++
		if r.in.Type == core.TypeDir {
			// Watermarks first: sources may re-push entries the old owner
			// already applied, and only the watermark deduplicates them.
			for _, m := range src.AppliedMarks(r.in.ID) {
				dst.InjectAppliedMark(m.Src, r.in.ID, m.ID, true)
			}
			prefix := core.EntryPrefix(r.in.ID)
			var dents []core.DirEntry
			src.KV().Scan(prefix, func(k, v []byte) bool {
				name := string(k[len(prefix):])
				if de, err := core.DecodeDirEntry(name, v); err == nil {
					dents = append(dents, de)
				}
				return true
			})
			for _, de := range dents {
				dst.InjectDentry(r.in.ID, de, true)
				moved++
			}
		}
	}
	return moved
}

// Moves reports completed group migrations (rebalance + reconfigure).
func (c *Cluster) Moves() uint64 { return c.moves }

// RebalanceOnce runs one balancer pass: read each server's per-group op
// tallies, and if the spread between the most- and least-loaded live servers
// is large enough, migrate the hottest group whose move strictly shrinks the
// spread. Tallies reset after the pass so the next decision measures load
// since this one, not history. Returns the number of groups moved (0 or 1).
func (c *Cluster) RebalanceOnce(p *env.Proc) int {
	type load struct {
		slot int
		ops  uint64
		fps  []server.FPOp
	}
	var live []load
	for i, srv := range c.Servers {
		if srv.Node().Down() || !srv.Serving() {
			continue
		}
		fps := srv.FPOps()
		var sum uint64
		for _, f := range fps {
			sum += f.N
		}
		live = append(live, load{slot: i, ops: sum, fps: fps})
	}
	if len(live) < 2 {
		return 0
	}
	src, dstIdx := 0, 0
	for i, l := range live {
		if l.ops > live[src].ops {
			src = i
		}
		if l.ops < live[dstIdx].ops {
			dstIdx = i
		}
	}
	maxLoad, minLoad := live[src].ops, live[dstIdx].ops
	moved := 0
	if maxLoad >= 2*minLoad && maxLoad-minLoad >= rebalanceMinGap {
		// Hottest group on the overloaded server that (a) the ring still
		// routes there and (b) whose move strictly improves the spread — a
		// group as hot as the whole imbalance would just carry the hot spot
		// to the destination.
		for _, f := range live[src].fps {
			if f.N == 0 || minLoad+f.N >= maxLoad {
				continue
			}
			if int(c.Ring.OwnerOf(f.FP)) != live[src].slot {
				continue
			}
			if c.MigrateFP(p, f.FP, uint32(live[dstIdx].slot)) == nil {
				moved = 1
			}
			break
		}
	}
	for _, l := range live {
		c.Servers[l.slot].ResetFPOps()
	}
	return moved
}

// Rebalance runs one balancer pass from an orchestration process. The future
// completes with the virtual duration of the pass.
func (c *Cluster) Rebalance() *env.Future {
	fut := env.NewFuture()
	c.Env.Spawn(c.Servers[0].ID(), func(p *env.Proc) {
		start := p.Now()
		c.RebalanceOnce(p)
		fut.Complete(p.Now() - start)
	})
	return fut
}
