package server

import (
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// aggOpts tunes one aggregation.
type aggOpts struct {
	// detach, when nonzero, is the directory a detach aggregates: peers plant
	// it in their invalidation lists before they lock their change-logs
	// (§5.2.3 step 5).
	detach core.DirID
	// force runs an aggregation even if another one completed while
	// waiting (a detach must observe the very latest state).
	force bool
}

// peerAggState is the peer-side context of an aggregation it is serving:
// the reply it sends, the change-logs it locked and the ack it awaits
// (§5.2.2 steps 6, 9a).
type peerAggState struct {
	entries wire.AggEntries
	locked  []*dirLog
	done    env.Future
	// ready flips once the snapshot exists; duplicate fetches arriving
	// earlier are dropped — answering them with the (empty) placeholder
	// would let the owner complete without this peer's entries while the
	// original handler still holds the change-log locks.
	ready bool
}

// aggregateFP aggregates every directory of a fingerprint group: remove the
// fingerprint from the dirty set, collect all pending change-log entries from
// every server, apply them to the inodes, and acknowledge (§5.2.2). It
// reports whether the aggregation was complete — false when a peer stayed
// unreachable past the retry budget, in which case the state visible now
// may miss that peer's acknowledged entries and readers must not treat it
// as covering their arrival time.
func (s *Server) aggregateFP(p *env.Proc, fp core.Fingerprint, opts *aggOpts) bool {
	if opts == nil {
		opts = &aggOpts{}
	}
	// A read is only satisfied by an aggregation whose dirty-set remove was
	// issued at or after the read arrived: every insert that contributed to
	// the read's "scattered" observation precedes the read's arrival, so
	// such an aggregation's fetches are guaranteed to cover those updates
	// (§A.2, Case 2.b). Joining an aggregation that started earlier could
	// return state missing updates whose inserts followed that aggregation's
	// remove.
	arrived := p.Now()
	st := s.fpOf(fp)
	st.mu.Lock(p)
	for {
		if st.aggActive {
			st.cond.Wait(p, &st.mu)
			continue
		}
		if !opts.force && st.lastStart >= arrived {
			// A fresh-enough aggregation completed while we waited.
			st.mu.Unlock()
			return true
		}
		st.aggActive = true
		st.lastStart = p.Now()
		break
	}
	st.mu.Unlock()

	complete := s.runAggregation(p, fp, opts)

	st.mu.Lock(p)
	if !complete {
		// An incomplete aggregation (a peer stayed down) covers nobody:
		// waiters must run their own instead of taking this one as fresh.
		st.lastStart = 0
	}
	st.lastIncomplete = !complete
	st.aggActive = false
	st.cond.Broadcast()
	st.mu.Unlock()
	return complete
}

// waitAggIdle blocks until no aggregation for the fingerprint group is in
// flight on this server. Directory reads whose dirty-set query returned
// "normal" use it: the fingerprint may be absent precisely because an
// in-flight aggregation removed it and has not applied its entries yet. It
// returns false when the most recent aggregation ended incomplete (a peer
// stayed unreachable) — the state now visible may miss acknowledged
// entries, and the read must retry rather than serve it.
func (s *Server) waitAggIdle(p *env.Proc, fp core.Fingerprint) bool {
	st := s.fpOf(fp)
	st.mu.Lock(p)
	for st.aggActive {
		st.cond.Wait(p, &st.mu)
	}
	ok := !st.lastIncomplete
	st.mu.Unlock()
	return ok
}

// runAggregation drives one aggregation of a fingerprint group: lock the
// local change-logs, fetch the peers' entries, apply, and release.
//
//detlint:lock-escapes the change-log locks are held for the life of the aggregation (dl.heldBy = id) and released inline after apply; the s.dead returns abandon them with the fail-stopped incarnation, whose volatile state Restart discards
func (s *Server) runAggregation(p *env.Proc, fp core.Fingerprint, opts *aggOpts) bool {
	asp := s.cfg.Trace.Start(p, "agg:run", "server")
	defer asp.End()
	s.Stats.Aggregations++
	id := s.ids.Next()
	ctx := &aggCtx{id: id, fp: fp}
	ctx.Expect = slices.DeleteFunc(slices.Clone(s.cfg.Peers), func(n env.NodeID) bool { return n == s.cfg.ID })
	slices.Sort(ctx.Expect)
	s.aggs[id] = ctx
	if s.ownerOfFP(fp) != s.cfg.ID {
		// The group migrated away between the trigger (a read, a quiesce
		// timer) and this registration. Aggregating a group this server no
		// longer owns would collect peers' entries into a store the ring no
		// longer routes reads to. Deregister and report incomplete — the
		// caller retries and re-resolves to the new owner. Runs in the same
		// event as the registration above, so FPQuiescent never observes a
		// half-registered aggregation.
		delete(s.aggs, id)
		return false
	}
	if s.cfg.Tracker == TrackerOwner {
		delete(s.ownerDirty, fp)
	}
	// Cancel a pending quiesce timer; this aggregation supersedes it.
	if t := s.quiesce[fp]; t != nil {
		t.Cancel()
		delete(s.quiesce, fp)
	}
	var buf [4]*dirLog
	locals := sortedClogs(buf[:0], s.clogsByFP[fp])

	// Collect the local change-logs of the group under their exclusive
	// protocol locks (this server may itself have logged updates to
	// directories it owns). They head ctx.logs, so the batch below applies the
	// local log first and the peers' logs in arrival order; no peer can answer
	// before the fetch below is sent.
	for _, dl := range locals {
		dl.lock.Lock(p)
		if dl.log.Len() > 0 {
			ctx.logs = append(ctx.logs, aggLog{from: s.cfg.ID, log: wire.DirLog{Dir: dl.ref, Entries: dl.log.Snapshot()}})
		}
		dl.heldBy = id
	}

	// Fetch from peers: remove the fingerprint and multicast (steps 5–6).
	fetch := wire.AggFetch{AggID: id, FP: fp, Owner: s.cfg.ID, Detach: opts.detach}
	if len(ctx.Expect) == 0 {
		ctx.Done.Complete(nil)
	}
	complete := true
	// One remove sequence number per aggregation: a RETRANSMITTED remove must
	// look stale to the switch's sequence guard (§5.4.1) so it cannot erase
	// fingerprints inserted after the aggregation began — the guard rejects
	// it while the piggybacked fetch still re-multicasts. Allocating a fresh
	// seq per retry used to wipe newer inserts, leaving their change-log
	// entries pending behind a "normal" directory until a proactive timer
	// healed the staleness (caught by the chaos checker). It is drawn here,
	// not taken from the aggregation id: the guard wants one origin's removes
	// in ascending order, and an aggregation whose id is older may have waited
	// on its local locks above while a younger one sent its remove.
	seq := s.ids.Next()
	s.rpc.Call(p, &ctx.Done, maxTries, func() {
		if s.cfg.Tracker == TrackerOwner {
			// Peers are walked in ascending id order, as every walk whose
			// order can reach the network must be: each send draws
			// latency/jitter from the seeded RNG, so a map's order would make
			// two runs with the same seed diverge (detlint maprange).
			for _, peer := range ctx.Expect {
				replyNew(s, p, peer, fetch)
			}
			return
		}
		pkt, hdr := wire.Carve[wire.DSHeader]()
		*hdr = wire.DSHeader{Op: wire.DSRemove, FP: fp, Seq: seq}
		*pkt = wire.Packet{DS: hdr, Dst: s.cfg.SwitchFor(fp), Origin: s.cfg.ID, Body: &fetch}
		s.send(p, pkt)
	}, func() {
		// Proceed with what we have so responsive peers can trim, but report
		// the aggregation incomplete: the unreachable peer's acknowledged
		// entries re-surface only via its recovery, and until then the group
		// must read as dirty again (below) so no read mistakes the partial
		// state for the full directory.
		complete = false
		ctx.Expect = ctx.Expect[:0]
	})

	// Apply (steps 7–8): every directory of the group as one batch under its
	// inode lock. Per-peer acks let each sender trim exactly the entries it
	// contributed.
	logs := ctx.logs
	if s.dead {
		// Fail-stopped mid-aggregation: abandon without applying or acking.
		// Peers time out, release their locks and KEEP their entries, which
		// re-surface through this server's recovery or the next aggregation —
		// applying them to this dead incarnation's store (and letting peers
		// trim) would lose them.
		delete(s.aggs, id)
		return false
	}

	s.applyByDir(p, logs)

	// Acknowledge every peer (steps 9–10) with what the watermarks now give
	// its logs: peers whose entries we applied trim and unlock, and the peers
	// that contributed nothing get an empty ack so their (unlocked) state
	// stays clean. The acks' MaxIDs are carved from one array. Only then does
	// the aggregation leave aggs: a reply retransmitted during the apply is
	// dropped as a duplicate, where the watermarks would not yet cover it.
	maxes := make([]wire.DirMax, 0, len(logs))
	for _, peer := range s.cfg.Peers {
		if peer == s.cfg.ID {
			continue
		}
		a := wire.AggAck{AggID: id, FP: fp, MaxIDs: maxes[len(maxes):]}
		for i := range logs {
			if logs[i].from == peer {
				s.ackLog(&a, peer, &logs[i].log)
			}
		}
		maxes = maxes[:len(maxes)+len(a.MaxIDs)]
		replyNew(s, p, peer, a)
	}
	delete(s.aggs, id)

	// Trim and unlock the local logs.
	for _, dl := range locals {
		for i := range logs {
			if l := &logs[i]; l.from == s.cfg.ID && l.log.Dir.ID == dl.ref.ID {
				s.ackEntries(dl, l.maxID)
			}
		}
		dl.heldBy = 0
		dl.lock.Unlock()
	}

	if !complete {
		// Mark the group dirty again: the remove above erased the
		// fingerprint, but the unreachable peer may hold acknowledged
		// entries this aggregation never collected. Reads must keep
		// treating the group as scattered (and re-aggregating) until that
		// peer's recovery re-delivers them — serving "normal" state now
		// would silently drop acknowledged writes from view.
		s.markDirty(p, fp)
	}
	return complete
}

// markDirty (re-)inserts a fingerprint group's dirty marker so reads
// aggregate. Called whenever acknowledged change-log entries remain pending
// behind a possibly-normal fingerprint: an aggregation that gave up on an
// unreachable peer, or a push whose target owner stayed unreachable — in
// both cases a "normal" read would silently miss the pending entries.
func (s *Server) markDirty(p *env.Proc, fp core.Fingerprint) {
	if s.dead {
		return
	}
	if s.cfg.Tracker == TrackerOwner {
		s.ownerDirty[fp] = true
		return
	}
	pkt, hdr := wire.Carve[wire.DSHeader]()
	*hdr = wire.DSHeader{Op: wire.DSInsert, FP: fp, AltDst: s.ownerOfFP(fp)}
	*pkt = wire.Packet{DS: hdr, Dst: s.cfg.SwitchFor(fp), Origin: s.cfg.ID}
	s.send(p, pkt)
}

// handleAggFetch runs on every non-owner server: lock the group's
// change-logs, snapshot, and stream the entries to the owner, retrying until
// acknowledged (§5.2.2 step 6).
//
//detlint:lock-escapes the snapshotted change-log locks transfer to peerAggState.locked (dl.heldBy = f.AggID) and are released by finishPeerAgg on ack or give-up
func (s *Server) handleAggFetch(p *env.Proc, _ *wire.Packet, f *wire.AggFetch) {
	p.Compute(s.cfg.Costs.Parse)
	s.addInval(f.Detach)
	if st := s.peerAggs[f.AggID]; st != nil {
		if !st.ready {
			// The original handler is still acquiring locks; it will send.
			return
		}
		// Duplicate fetch (owner retried): resend the same snapshot.
		replyNew(s, p, f.Owner, st.entries)
		return
	}
	st := &peerAggState{entries: wire.AggEntries{AggID: f.AggID, FP: f.FP, From: s.cfg.ID}}
	s.peerAggs[f.AggID] = st
	var buf [4]*dirLog
	for _, dl := range sortedClogs(buf[:0], s.clogsByFP[f.FP]) {
		dl.lock.Lock(p) // exclusive: blocks appenders while entries travel
		if dl.log.Len() > 0 {
			st.entries.Logs = append(st.entries.Logs, wire.DirLog{Dir: dl.ref, Entries: dl.log.Snapshot()})
			st.locked = append(st.locked, dl)
			dl.heldBy = f.AggID
		} else {
			dl.lock.Unlock()
		}
	}

	st.ready = true
	v, ok := s.rpc.Call(p, &st.done, maxTries+1, func() { replyNew(s, p, f.Owner, st.entries) }, func() {
		// Owner unreachable: keep the entries (no trim) and release the locks
		// so the system can make progress; the owner's recovery re-aggregates
		// (§A.1).
		delete(s.peerAggs, f.AggID)
		s.finishPeerAgg(st, &wire.AggAck{AggID: f.AggID, FP: f.FP})
	})
	if ok {
		// This handler owns the locks: trim per the owner's ack and release
		// (§5.2.2 steps 9a/9b).
		s.finishPeerAgg(st, v.(*wire.AggAck))
	}
}

// finishPeerAgg trims acknowledged entries and releases the change-log locks
// held on behalf of one aggregation. Only the fetch handler calls it, so
// lock release has a single owner.
func (s *Server) finishPeerAgg(st *peerAggState, a *wire.AggAck) {
	for _, dl := range st.locked {
		if i := slices.IndexFunc(a.MaxIDs, func(m wire.DirMax) bool { return m.Dir == dl.ref.ID }); i >= 0 && a.MaxIDs[i].MaxID > 0 {
			s.ackEntries(dl, a.MaxIDs[i].MaxID)
		}
		dl.heldBy = 0
		dl.lock.Unlock()
	}
}

// handleAggEntries collects one peer's reply at the aggregation owner.
func (s *Server) handleAggEntries(p *env.Proc, _ *wire.Packet, e *wire.AggEntries) {
	ctx := s.aggs[e.AggID]
	if ctx == nil {
		if s.ids.Predecessor(e.AggID) {
			// A predecessor's aggregation, which died with it: the empty ack
			// makes the peer unlock and KEEP its entries (the give-up path it
			// would reach a retry budget later). Recovery's forced aggregation
			// collects them again, and the WAL-rebuilt watermarks drop what
			// the predecessor had already group-committed.
			s.Stats.AggReleased++
			replyNew(s, p, e.From, wire.AggAck{AggID: e.AggID, FP: e.FP})
			return
		}
		// Late or duplicate reply to an aggregation this incarnation finished:
		// re-ack from the watermarks so the peer can trim and unlock.
		a := wire.AggAck{AggID: e.AggID, FP: e.FP}
		for i := range e.Logs {
			s.ackLog(&a, e.From, &e.Logs[i])
		}
		replyNew(s, p, e.From, a)
		return
	}
	if !ctx.Expects(e.From) {
		return // duplicate within the active aggregation
	}
	for _, l := range e.Logs {
		ctx.logs = append(ctx.logs, aggLog{from: e.From, log: l})
	}
	ctx.Answer(e.From, nil)
}

// handleAggAck finishes the peer side: it hands the ack to the waiting
// fetch handler, which owns the trim-and-unlock (§5.2.2 steps 9a/9b).
func (s *Server) handleAggAck(p *env.Proc, _ *wire.Packet, a *wire.AggAck) {
	st := s.peerAggs[a.AggID]
	if st == nil {
		return
	}
	delete(s.peerAggs, a.AggID)
	st.done.Complete(a)
}

// ackLog adds to a the ack of l, a directory log that peer from sent: the
// largest id in l at or below from's watermark of the directory. applyBatch sets the
// mark only once the entries' records are in the WAL, so the ack never runs
// ahead of the log (DESIGN.md "Log, then send"); a log wholly above the mark
// adds nothing, and the peer keeps it.
func (s *Server) ackLog(a *wire.AggAck, from env.NodeID, l *wire.DirLog) {
	mark := s.appliedMark(from, l.Dir.ID)
	var through uint64
	for _, e := range l.Entries {
		if e.ID <= mark {
			through = max(through, e.ID)
		}
	}
	if through > 0 {
		a.MaxIDs = append(a.MaxIDs, wire.DirMax{Dir: l.Dir.ID, MaxID: through})
	}
}

// applyByDir applies an aggregation's collected logs, every directory of the
// group as one applyBatch under its inode lock. Logs group by directory
// reference — id and key: a log still filed under a renamed directory's old
// key is its own group — through a stable in-place partition; for the usual
// single directory every log already sits where it belongs and nothing moves.
func (s *Server) applyByDir(p *env.Proc, logs []aggLog) {
	for start := 0; start < len(logs); {
		ref := logs[start].log.Dir
		end := start + 1
		for j := end; j < len(logs); j++ {
			if d := logs[j].log.Dir; d.ID == ref.ID && d.Key == ref.Key {
				l := logs[j]
				copy(logs[end+1:j+1], logs[end:j])
				logs[end] = l
				end++
			}
		}
		l := s.lockOf(ref.Key)
		l.Lock(p)
		s.applyBatch(p, logs[start:end])
		s.unlockKey(l)
		start = end
	}
}

// applyBatch applies what several sources hold pending for ONE directory —
// every log carries the same Dir, at most one log per source — to the inode
// and entry list as one batch, and sets each log's maxID. The caller holds the
// directory inode's exclusive lock, which also guards the directory's
// watermarks.
//
// Each source is filtered by its own exactly-once watermark; what survives is
// applied in the order given (an aggregation passes its local log first, then
// the peers' in arrival order), so the last writer per name, the size delta
// and the max timestamps are those of applying the sources one after another.
// With compaction the batch pays one group commit — one synchronous WAL
// write, the per-record marshaling spread over the cores — one attribute
// read-modify-write from one compaction over the concatenation, and one
// core-parallel entry-list apply (§5.3: compaction restores intra-server
// parallelism). Without it every entry pays its own WAL write and attribute
// read-modify-write — the "+Async" configuration of Fig. 14.
func (s *Server) applyBatch(p *env.Proc, logs []aggLog) {
	c := &s.cfg.Costs
	dir := logs[0].log.Dir
	n := 0
	for i := range logs {
		l := &logs[i]
		l.mark = s.appliedMark(l.from, dir.ID)
		for _, e := range l.log.Entries {
			if e.ID > l.maxID {
				l.maxID = e.ID
			}
			if e.ID > l.mark {
				n++
			}
		}
	}
	if n == 0 {
		return
	}
	s.Stats.AggEntries += uint64(n)

	// Persist before applying: the owner's WAL now holds the entries, so
	// the sources may mark them applied (§A.1 "no change-log entry is lost").
	compaction := s.cfg.Updates == UpdateCompacted
	wsp := s.cfg.Trace.Start(p, "wal:entries", "server")
	if compaction {
		p.Compute(c.WALAppend)
		s.parallelCompute(p, n, c.LogAppend)
	}
	fresh := make([]core.LogEntry, 0, n)
	for i := range logs {
		l := &logs[i]
		for _, e := range l.log.Entries {
			if e.ID <= l.mark {
				continue
			}
			if !compaction {
				p.Compute(c.WALAppend)
			}
			s.walBuf = encodeAggEntry(s.walBuf[:0], l.from, dir, e)
			s.logRecord(recAggEntry)
			fresh = append(fresh, e)
		}
	}
	wsp.End()

	var in core.Inode
	err := s.readInode(dir.Key, &in)
	p.Compute(c.KVGet)
	switch {
	case err == core.ErrNotExist:
		// The directory vanished (rmdir raced a straggling update); the
		// entries are orphans — consume them so logs drain (§5.2.3).
		s.Stats.Orphans += uint64(n)
	case err != nil:
		// An undecodable inode: nothing to apply to; the entries are consumed.
	case compaction:
		comp := core.Compact(fresh)
		comp.ApplyToAttr(&in.Attr)
		p.Compute(c.KVGet + c.KVPut) // one attribute read-modify-write
		s.storeInode(dir.Key, &in)
		for _, op := range comp.Ops {
			s.putDentry(in.ID, core.DirEntry{Name: op.Name, Type: op.Type, Perm: op.Perm}, op.Put)
		}
		// Compacted entry-list operations touch distinct names, so they
		// apply in parallel across the server's cores.
		s.parallelCompute(p, len(comp.Ops), c.LogApplyEntry)
	default:
		for _, e := range fresh {
			one := core.Compact([]core.LogEntry{e})
			one.ApplyToAttr(&in.Attr)
			p.Compute(c.KVGet + c.KVPut + c.LogApplyEntry)
			s.storeInode(dir.Key, &in)
			s.applyDentry(in.ID, e)
		}
	}
	for i := range logs {
		s.setAppliedMark(logs[i].from, dir.ID, logs[i].maxID)
	}
}

// minLaneItems is the least work a parallelCompute lane carries: below it a
// spawned process, its future and its closure cost more than the fraction of
// a microsecond they save.
const minLaneItems = 8

// parallelCompute charges n×each of service time, split evenly over the
// node's cores when every lane gets at least minLaneItems items. A smaller
// batch is one serial charge.
func (s *Server) parallelCompute(p *env.Proc, n int, each env.Duration) {
	lanes := min(s.cfg.Cores, n/minLaneItems)
	if lanes <= 1 || each <= 0 {
		p.Compute(env.Duration(n) * each)
		return
	}
	var buf [16]int // stays on the stack: burnLanes keeps no reference
	loads := buf[:0]
	per, rem := n/lanes, n%lanes
	for i := 0; i < lanes; i++ {
		k := per
		if i < rem {
			k++
		}
		loads = append(loads, k)
	}
	burnLanes(p, loads, each)
}

// burnLanes charges loads[i]×each of service time on lane i, all lanes at
// once: worker processes each burn one lane concurrently with the caller's
// (lane 0), and the call returns when the longest has finished.
func burnLanes(p *env.Proc, loads []int, each env.Duration) {
	done := make([]*env.Future, 0, len(loads)-1)
	for _, k := range loads[1:] {
		if k == 0 {
			continue
		}
		fut := env.NewFuture()
		done = append(done, fut)
		p.Spawn(func(wp *env.Proc) {
			wp.Compute(env.Duration(k) * each)
			fut.Complete(nil)
		})
	}
	p.Compute(env.Duration(loads[0]) * each)
	for _, fut := range done {
		fut.Wait(p)
	}
}

// --- Proactive aggregation (§5.3) -------------------------------------------

// maybePush ships a change-log to its directory's owner when it filled an
// MTU, went idle, or a flush waits for it, and reports whether it started a
// push. A server that is not serving refuses: FlushAll or Recover delivers
// the whole log itself (and a fail-stopped one sends nothing).
func (s *Server) maybePush(dl *dirLog) bool {
	if !s.serving || dl.pushing || dl.log.Len() == 0 || dl.heldBy != 0 {
		return false
	}
	dl.pushing = true
	snap := dl.log.Snapshot()
	s.env.Spawn(s.cfg.ID, func(p *env.Proc) {
		s.deliver(p, dl, snap)
		dl.pushing = false
		// A flush still waiting was registered behind this push's snapshot:
		// the remainder goes now.
		if dl.log.Len() >= s.cfg.PushEntries || len(dl.flushes) > 0 {
			s.maybePush(dl)
		}
	})
	return true
}

// deliver ships snap — what dl held when the delivery started — to the
// directory's owner and returns once dl is acknowledged through snap's largest
// id. Every acknowledgment trims the log (handleChangePushAck), so whichever
// push's ack gets there first ends the wait. It is the one way a change-log
// reaches its owner: the proactive push, FlushAll and recovery's re-delivery
// all call it. A server that is not serving is flushing or recovering: its
// pushes are Final and get maxTries sends instead of pushTries.
func (s *Server) deliver(p *env.Proc, dl *dirLog, snap []core.LogEntry) {
	final := !s.serving
	tries := pushTries
	if final {
		tries = maxTries
	}
	var through uint64
	for _, e := range snap {
		through = max(through, e.ID)
	}
	s.Stats.Pushes++
	msg := wire.ChangePush{From: s.cfg.ID, Log: wire.DirLog{Dir: dl.ref, Entries: snap}, Final: final}
	acked := dl.awaitAck(through, true)
	s.rpc.Call(p, acked, tries, func() {
		// The owner is recomputed per try: a migration can move the
		// directory's group mid-push, and the old owner drops mis-routed
		// pushes, so the entries chase the current one.
		replyNew(s, p, s.ownerOfFP(dl.ref.FP), msg)
	}, func() {
		// The owner stayed unreachable: the entries remain pending here,
		// possibly behind a normal fingerprint. Keep the group scattered so
		// reads aggregate (and collect them) instead of serving stale state,
		// and fail the flushes waiting on the log.
		s.markDirty(p, dl.ref.FP)
		dl.settleFlushes(0, acked)
	})
}

// awaitAck registers a wait for dl to be acknowledged through an entry id; the
// future completes with whether it was. A delivery's own wait (push) ends only
// with an acknowledgment: another delivery giving up does not cut its budget
// short.
func (dl *dirLog) awaitAck(through uint64, push bool) *env.Future {
	f := logFlush{through: through, done: env.NewFuture(), push: push}
	dl.flushes = append(dl.flushes, f)
	return f.done
}

// settleFlushes completes the waits an acknowledgment through id covers, or —
// when the delivery waiting on gaveUp gave up instead — the flushes' waits and
// its own, unacknowledged.
func (dl *dirLog) settleFlushes(id uint64, gaveUp *env.Future) {
	acked := gaveUp == nil
	kept := dl.flushes[:0]
	for _, f := range dl.flushes {
		if acked && f.through > id || !acked && f.push && f.done != gaveUp {
			kept = append(kept, f)
			continue
		}
		f.done.Complete(acked)
	}
	dl.flushes = kept
}

// pendingNamed reports whether the log holds a deferred update of name, and
// the largest id logged.
func (dl *dirLog) pendingNamed(name string) (through uint64, named bool) {
	for _, e := range dl.log.Snapshot() {
		named = named || e.Name == name
		through = max(through, e.ID)
	}
	return through, named
}

// flushLog delivers what dl holds if it holds a deferred update of name, and
// reports whether the directory's owner acknowledged it. It is trigger and
// wait, not a push path of its own: it forces the proactive push unless one
// (or an aggregation) already has the log, and waits until ackEntries has
// passed the largest id logged.
//
// An update acknowledged to its client is in the log, so a log that does not
// hold the name answers at once. Appenders reserve an id and append it in one
// event (handleMutate), so the log receives its ids in ascending order: no id
// below the largest logged is still on its way, the forced push's snapshot
// has no gap below it, and an acknowledgment through that id covers the name.
// The log's exclusive lock is still taken first, as a barrier: it waits out
// an aggregation holding the log, whose ack may have trimmed the name
// already, and the appenders in flight under the shared lock.
func (s *Server) flushLog(p *env.Proc, dl *dirLog, name string) bool {
	if _, named := dl.pendingNamed(name); !named {
		return true
	}
	dl.lock.Lock(p)
	through, named := dl.pendingNamed(name)
	dl.lock.Unlock()
	if !named {
		return true // an aggregation held the log, and its ack trimmed it
	}
	s.Stats.RenameFlushes++
	acked := dl.awaitAck(through, false)
	v, ok := s.rpc.Call(p, acked, 0, func() {
		// Refused while a push is in flight, which re-triggers for the flushes
		// it leaves waiting, and while an aggregation holds the log, whose ack
		// trims it as a push's does.
		if s.maybePush(dl) {
			s.Stats.RenameFlushPushes++
		}
	}, nil)
	return ok && v.(bool)
}

// resetIdleTimer (re)arms the idle push trigger after an append.
func (s *Server) resetIdleTimer(dl *dirLog) {
	if dl.idle == nil {
		dl.idle = s.env.After(s.cfg.PushIdle, func() { s.maybePush(dl) })
		return
	}
	dl.idle.Reset(s.cfg.PushIdle)
}

// handleChangePush applies a proactively pushed change-log at the owner and
// (re)starts the quiesce timer; when pushes stop arriving the owner
// aggregates on its own so the next read finds the directory normal (§5.3).
func (s *Server) handleChangePush(p *env.Proc, _ *wire.Packet, cp *wire.ChangePush) {
	p.Compute(s.cfg.Costs.Parse)
	fp := cp.Log.Dir.FP
	// A push routed here under a stale ring is dropped without an ack: the
	// pusher recomputes the owner from the ring on every retry, so the entries
	// chase the current owner (or stay pending behind a dirty mark). Applying
	// them here would strand acknowledged entries on a server reads no longer
	// reach.
	if s.admitFP(p, fp) != nil {
		return
	}
	defer s.fpExit(fp)
	l := s.lockOf(cp.Log.Dir.Key)
	l.Lock(p)
	pushed := []aggLog{{from: cp.From, log: cp.Log}}
	s.applyBatch(p, pushed)
	s.unlockKey(l)
	replyNew(s, p, cp.From, wire.ChangePushAck{Dir: cp.Log.Dir.ID, MaxID: pushed[0].maxID})
	if cp.Final {
		return
	}
	if t := s.quiesce[fp]; t != nil {
		t.Reset(s.cfg.OwnerQuiesce)
		return
	}
	s.quiesce[fp] = s.env.After(s.cfg.OwnerQuiesce, func() {
		if !s.serving {
			return
		}
		s.env.Spawn(s.cfg.ID, func(p *env.Proc) { s.aggregateFP(p, fp, nil) })
	})
}

// handleChangePushAck trims the log through what the owner applied, or had
// applied already, whichever push the ack answers: it releases every wait the
// ack covers. Acks are idempotent — the owner's watermark covers MaxID.
func (s *Server) handleChangePushAck(_ *env.Proc, _ *wire.Packet, a *wire.ChangePushAck) {
	if dl := s.clogs[a.Dir]; dl != nil {
		s.ackEntries(dl, a.MaxID)
	}
}

// --- Invalidation (§5.2) -----------------------------------------------------

// addInval appends a directory to the invalidation list; the zero id is no
// directory. Re-invalidating a directory bumps its sequence so clients that
// consumed the earlier entry still observe the new one.
func (s *Server) addInval(dir core.DirID) {
	if dir.IsZero() {
		return
	}
	s.invalSeq++
	s.invalSet[dir] = s.invalSeq
	s.inval = append(s.inval, wire.InvalEntry{Seq: s.invalSeq, Dir: dir})
}

// --- Detach (§5.2.3) ----------------------------------------------------------

// detachment is a detach of a directory's key in flight, by an rmdir or a
// directory rename. While it is registered in Server.removals, lookups of the
// key wait (handleLookup), and so does the next detach of the key.
type detachment struct {
	ended env.Future
	// move names the directory rename the detach is for, zero for an rmdir,
	// which ends its own. A rename's detach outlives its exchange until the
	// rename's prepare here holds the key's lock, or it lapses.
	move uint64
}

// detach is the prologue an rmdir and a directory rename share (§5.2.3,
// Fig. 6 steps 4–7). It registers the detach of key (a rename's retransmitted
// detach reuses its own registration; any other waits out the one in
// flight), admits the key's group, learns the directory, plants it in the
// invalidation list and runs the forced aggregation that collects every
// deferred update to it and plants it at every peer, whose exclusive
// change-log locks wait out the writers in flight: every later writer under
// the directory fails its ancestor check. The apply phase takes the
// directory's inode lock, so the caller cannot hold it across detach. The
// caller ends the registration returned (endDetach); on nil error it holds
// the group's busy reference.
func (s *Server) detach(p *env.Proc, key core.Key, move uint64) (*detachment, core.DirID, error) {
	d := s.removals[key]
	if d == nil || move == 0 || d.move != move {
		s.waitDetach(p, key)
		d = &detachment{move: move}
		s.removals[key] = d
	}
	fp := key.Fingerprint()
	if err := s.admitFP(p, fp); err != nil {
		// Routed here under a stale ring: the record may live on the new
		// owner — retry, don't report ENOENT.
		return d, core.DirID{}, err
	}
	s.tallyFP(fp)
	// Uncharged: an rmdir pays the KVGet of its read under the key's lock, a
	// rename that of its read after the aggregation.
	var in core.Inode
	err := s.readDirInode(key, &in)
	if err == nil {
		s.addInval(in.ID)
		if !s.aggregateFP(p, fp, &aggOpts{detach: in.ID, force: true}) {
			// Neither emptiness nor the entry list a rename moves can be
			// decided against state that may be missing an unreachable peer's
			// acknowledged entries.
			err = core.ErrRetry
		}
	}
	if err != nil {
		s.fpExit(fp)
	}
	return d, in.ID, err
}

// waitDetach parks until no detach of key is in flight.
func (s *Server) waitDetach(p *env.Proc, key core.Key) {
	for d := s.removals[key]; d != nil; d = s.removals[key] {
		d.ended.Wait(p)
	}
}

// endDetach ends d, a detach of key, unless it ended already: the lookups and
// detaches that wait it out proceed.
func (s *Server) endDetach(key core.Key, d *detachment) {
	if s.removals[key] != d {
		return
	}
	delete(s.removals, key)
	d.ended.Complete(nil)
}

// detachLapse is how long a directory rename's detach waits for the rename's
// prepare after its exchange: generous, as inDoubtAfter is, yet finite, so a
// coordinator that died holds the key's lookups no longer.
func (s *Server) detachLapse() env.Duration { return 4 * s.cfg.RetryTimeout }
