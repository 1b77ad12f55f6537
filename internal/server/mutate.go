package server

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// handleMutate executes create, delete, mkdir and rmdir, asynchronously per
// §5.2.1. The request is addressed to the owner of the target object's inode.
func (s *Server) handleMutate(p *env.Proc, _ *wire.Packet, req *wire.MutateReq) {
	s.Stats.Ops++
	c := &s.cfg.Costs
	key := core.Key{PID: req.Parent.ID, Name: req.Name}
	fp := key.Fingerprint()
	parentLog := s.clogOf(req.Parent)
	admitted := false
	var target core.DirID
	if req.Op == core.OpRmdir {
		// The rmdir prologue is the detach (§5.2.3, Fig. 6 steps 4–7), run
		// before the locks below; the rmdir ends it when it ends.
		d, dir, err := s.detach(p, key, 0)
		defer s.endDetach(key, d)
		if err != nil {
			s.replyMutate(p, req, err)
			return
		}
		target, admitted = dir, true
	}

	// Locking (Fig. 4 step 2): shared lock on the parent's change-log —
	// concurrent updates to one directory commute — and an exclusive lock on
	// the target inode, which serializes create/delete of the same name.
	p.Compute(c.LockOp)
	parentLog.lock.RLock(p)
	kl := s.lockOf(key)
	kl.Lock(p)
	fail := func(err error) {
		if admitted {
			s.fpExit(fp)
		}
		s.unlockKey(kl)
		parentLog.lock.RUnlock()
		s.replyMutate(p, req, err)
	}

	// Checking (step 3): stale-cache validation, stale-ring routing (plus the
	// migration arrival gate and busy reference), and existence.
	if err := s.checkAncestors(&req.ReqCommon); err != nil {
		fail(err)
		return
	}
	if !admitted {
		if err := s.admitFP(p, fp); err != nil {
			fail(err)
			return
		}
		admitted = true
	}
	// The parent ref is current (stale caches were just rejected): if the
	// directory was renamed since this change-log was created, re-key the
	// log so this entry aggregates under the directory's current
	// fingerprint.
	s.rekeyClog(parentLog, req.Parent)
	p.Compute(c.KVGet)
	var old core.Inode
	rerr := s.readInode(key, &old)
	exists := rerr != core.ErrNotExist
	var newDir core.DirID
	var in core.Inode
	entry := core.LogEntry{Time: p.Now(), Name: req.Name}
	switch req.Op {
	case core.OpCreate:
		if exists {
			fail(core.ErrExist)
			return
		}
		perm := req.Perm
		if perm == 0 {
			perm = core.DefaultFilePerm
		}
		now := p.Now()
		in.Attr = core.Attr{Type: core.TypeRegular, Perm: perm, Nlink: 1,
			Atime: now, Mtime: now, Ctime: now}
		in.DataLoc = s.assignDataLoc(fp)
		entry.Op, entry.Type, entry.Perm = core.OpCreate, core.TypeRegular, perm
	case core.OpMkdir:
		if exists {
			fail(core.ErrExist)
			return
		}
		perm := req.Perm
		if perm == 0 {
			perm = core.DefaultDirPerm
		}
		now := p.Now()
		newDir = s.ids.NextDirID()
		in.Attr = core.Attr{Type: core.TypeDir, Perm: perm, Nlink: 2,
			Atime: now, Mtime: now, Ctime: now}
		in.ID = newDir
		entry.Op, entry.Type, entry.Perm = core.OpMkdir, core.TypeDir, perm
	case core.OpDelete:
		if !exists {
			fail(core.ErrNotExist)
			return
		}
		if rerr != nil || old.Type == core.TypeDir {
			fail(core.ErrIsDir)
			return
		}
		entry.Op, entry.Type = core.OpDelete, old.Type
		if old.File != 0 {
			// Hard-linked file: the delete removes this reference and
			// decrements the shared attribute object's link count (§5.5).
			if err := s.adjustNlink(p, old.File, -1); err != nil {
				fail(err)
				return
			}
		}
	case core.OpRmdir:
		if rerr != nil || old.ID != target {
			// Gone, or renamed away and re-created, since the prologue found
			// it: the retry finds what the key holds now.
			fail(core.ErrRetry)
			return
		}
		p.Compute(c.KVScanEntry)
		if s.kv.CountPrefix(core.EntryPrefix(target)) != 0 {
			fail(core.ErrNotEmpty)
			return
		}
		// The record carries the target: replay re-plants its id.
		in = old
		entry.Op, entry.Type = core.OpRmdir, core.TypeDir
	default:
		fail(core.ErrInvalid)
		return
	}

	// Commit (step 4): persist the operation, then execute (step 5). The
	// service times are charged first; then one event reserves the change-log
	// entry id, logs the operation, stores the inode and appends the entry.
	// So every change-log receives its ids in ascending order, and a snapshot
	// of it — a push, the overflow notice below — never lacks an id below its
	// largest: the owner's per-source watermark (applyBatch) would drop that
	// id when it arrived later. The WAL record carries the id, so recovery
	// rebuilds the same log.
	kvCost, stored := c.KVPut, &in
	if req.Op == core.OpDelete || req.Op == core.OpRmdir {
		kvCost, stored = c.KVDel, nil
	}
	wsp := s.cfg.Trace.Start(p, "wal:commit", "server")
	p.Compute(c.WALAppend)
	wsp.End()
	p.Compute(kvCost)
	if s.cfg.Updates != UpdateSync {
		p.Compute(c.LogAppend)
	}
	entry.ID = s.ids.Next()
	lsn := s.logCommit(parentLog, req.Parent, entry, &in)
	s.storeInode(key, stored)

	if s.cfg.Updates == UpdateSync {
		// Baseline (Fig. 14): synchronous cross-server update of the parent
		// directory before replying. Locks are held across the round trip.
		s.syncCommit(p, req, parentLog, entry, lsn, kl, newDir)
		s.fpExit(fp)
		return
	}

	// Append to the parent's change-log (step 5).
	parentLog.log.Append(entry)
	pending := parentLog.log.Len()

	// Dirty-set update and completion (steps 6–7). The response is cached
	// for retransmission replay only AFTER the commit ack: the client's copy
	// travels via the switch multicast at insert time, and replaying it any
	// earlier would acknowledge a write whose fingerprint is not yet in the
	// dirty set — a read racing the (fault-stretched) insert window would
	// then miss an acknowledged update. Until then the dispatch's in-flight
	// marker silently drops duplicates.
	resp := &wire.MutateResp{RespCommon: s.respCommon(&req.ReqCommon, nil), Dir: newDir}
	s.asyncCommit(p, req.Parent, parentLog, entry, lsn, resp, req.Client)
	s.remember(req.Client, req.RPC, resp)

	// Unlocking happens when the switch (or the fallback owner) acks. The
	// busy reference is held through the commit ack: a migration must not
	// copy the group away between the local mutation and the client's copy
	// of the response leaving (the dedup cache stays authoritative here).
	s.unlockKey(kl)
	parentLog.lock.RUnlock()
	s.fpExit(fp)

	// Proactive push when the log fills an MTU (§5.3), outside the locks.
	if pending >= s.cfg.PushEntries {
		s.maybePush(parentLog)
	} else {
		s.resetIdleTimer(parentLog)
	}
}

// logCommit logs entry's commit under parent, whose change-log is dl: a
// recCommitAt when dl's slot names parent, else a recCommit, which defines
// the log's next slot, dl's from now on if dl's ref is parent. The slot is
// counted once the record is appended: an image logRecord takes first counts
// only the slots of the records it covers. An rmdir's directory joins the
// invalidations an image carries.
func (s *Server) logCommit(dl *dirLog, parent core.DirRef, entry core.LogEntry, in *core.Inode) wal.LSN {
	var lsn wal.LSN
	if dl.walSlot != 0 && dl.ref == parent {
		s.walBuf = encodeCommitAt(s.walBuf[:0], dl.walSlot, entry, in)
		lsn = s.logRecord(recCommitAt)
	} else {
		s.walBuf = encodeCommit(s.walBuf[:0], parent, entry, in)
		lsn = s.logRecord(recCommit)
		s.walSlots++
		if dl.ref == parent {
			dl.walSlot = s.walSlots
		}
	}
	if entry.Op == core.OpRmdir {
		s.rmdirs = append(s.rmdirs, in.ID)
	}
	return lsn
}

// replyMutate answers a mutation that ends without a switch-mediated commit
// (a failed check, a stale route): the response is cached for retransmission
// replay and sent from one allocation with its packet.
func (s *Server) replyMutate(p *env.Proc, req *wire.MutateReq, err error) {
	pkt, resp := wire.NewPacket[wire.MutateResp](req.Client, s.cfg.ID)
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.remember(req.Client, req.RPC, resp)
	s.send(p, pkt)
}

// asyncCommit sends the dirty-set insert and waits for the commit ack
// (success multicast leg 7b, or the fallback owner's ack), until it arrives or
// this incarnation fail-stops; inserts are idempotent (§5.4.1). Like every
// sender of a message that must not leave before its WAL record (DESIGN.md
// "Log, then send"), it takes the record: entry's recCommit, which the
// owner's acknowledgment of the entry marks applied (ackEntries).
func (s *Server) asyncCommit(p *env.Proc, parent core.DirRef, parentLog *dirLog,
	entry core.LogEntry, rec wal.LSN, resp *wire.MutateResp, client env.NodeID) {

	parentLog.commits = append(parentLog.commits, logCommit{id: entry.ID, lsn: rec})
	csp := s.cfg.Trace.Start(p, "commit:async", "server")
	defer csp.End()
	id := s.ids.Next()
	notice := &wire.CommitNotice{
		Resp:     resp,
		Client:   client,
		CommitID: id,
		MarkOnly: s.cfg.Tracker == TrackerOwner,
	}
	if s.cfg.Tracker == TrackerOwner {
		// Owner-tracker variant: the parent's owner records the dirty state
		// and multicasts completion — an extra server on the critical path
		// (Fig. 16).
		notice.Update = wire.DirLog{Dir: parent}
	} else {
		// Snapshot the pending log for the overflow fallback: the switch
		// rewrites the packet to the parent's owner, which applies the whole
		// log synchronously (§5.2.1, §6.2).
		notice.Update = wire.DirLog{Dir: parent, Entries: parentLog.log.Snapshot()}
	}
	v, ok := s.rpc.Request(p, id, 0, s.cfg.RetryTimeout, func() {
		// The fallback owner is recomputed per try: a migration can re-route
		// the parent's group mid-commit, and a packet built once with a stale
		// AltDst would keep steering the switch's overflow rewrite at a server
		// that no longer owns the directory.
		if s.cfg.Tracker == TrackerOwner {
			replyNew(s, p, s.ownerOfFP(parent.FP), *notice)
			return
		}
		pkt, hdr := wire.Carve[wire.DSHeader]()
		*hdr = wire.DSHeader{Op: wire.DSInsert, FP: parent.FP, AltDst: s.ownerOfFP(parent.FP)}
		*pkt = wire.Packet{DS: hdr, Dst: s.cfg.SwitchFor(parent.FP), Origin: s.cfg.ID, Body: notice}
		s.send(p, pkt)
	})
	if !ok {
		return
	}
	if v.(*wire.CommitAck).Applied {
		// Fallback applied the pending log remotely: mark applied and trim
		// (§5.4.2 keeps recovery exactly-once).
		s.Stats.Fallbacks++
		maxID := uint64(0)
		for _, e := range notice.Update.Entries {
			maxID = max(maxID, e.ID)
		}
		s.ackEntries(parentLog, maxID)
	} else {
		s.Stats.AsyncCommits++
	}
}

// syncCommit is the Baseline path of Fig. 14: ship the single update to the
// parent's owner and wait for it to apply before replying; all locks held. It
// takes entry's recCommit record, as asyncCommit does, and marks it applied
// once the owner acknowledged. A fail-stopped incarnation leaves the commit
// to its recovery: the WAL record stays unmarked, and the locks die with it.
func (s *Server) syncCommit(p *env.Proc, req *wire.MutateReq, parentLog *dirLog,
	entry core.LogEntry, rec wal.LSN, kl *keyLock, newDir core.DirID) {

	id := s.ids.Next()
	csp := s.cfg.Trace.Start(p, "commit:sync", "server")
	defer csp.End()
	resp := &wire.MutateResp{RespCommon: s.respCommon(&req.ReqCommon, nil), Dir: newDir}
	notice := wire.CommitNotice{
		Resp:     resp,
		Client:   req.Client,
		CommitID: id,
		Update:   wire.DirLog{Dir: req.Parent, Entries: []core.LogEntry{entry}},
	}
	if _, ok := s.rpc.Request(p, id, 0, s.cfg.RetryTimeout, func() { replyNew(s, p, s.ownerOfFP(req.Parent.FP), notice) }); !ok {
		return
	}
	// Cache the response for retransmission replay only now that the remote
	// apply is acknowledged (the parent's owner also sent the client's copy).
	s.remember(req.Client, req.RPC, resp)
	s.Stats.SyncCommits++
	s.markApplied(rec)
	s.unlockKey(kl)
	parentLog.lock.RUnlock()
}

// handleFallback runs on the parent directory's owner when (a) a dirty-set
// insert overflowed and the switch rewrote the packet here (§6.2), (b) the
// server runs in Baseline mode, or (c) the owner-tracker variant marks state.
func (s *Server) handleFallback(p *env.Proc, pkt *wire.Packet, cn *wire.CommitNotice) {
	p.Compute(s.cfg.Costs.Parse)
	fp := cn.Update.Dir.FP
	if s.admitFP(p, fp) != nil {
		// The directory's group migrated while this notice was in flight (or
		// the switch rewrote against a stale AltDst). Forward to the current
		// owner, preserving pkt.Origin: the origin server's identity drives
		// the per-source watermarks in applyBatch and routes the CommitAck.
		// A migration still inbound leaves it to the origin's call, which
		// re-sends.
		if dst := s.ownerOfFP(fp); dst != s.cfg.ID {
			p.Send(dst, &wire.Packet{Dst: dst, Origin: pkt.Origin,
				Trace: p.TraceCtx(), Body: cn})
		}
		return
	}
	defer s.fpExit(fp)
	if cn.MarkOnly {
		s.groupOf(fp).dirty = true
		p.Send(cn.Client, &wire.Packet{Dst: cn.Client, Origin: s.cfg.ID,
			Trace: p.TraceCtx(), Body: cn.Resp})
		replyNew(s, p, pkt.Origin, wire.CommitAck{CommitID: cn.CommitID})
		return
	}
	dir := cn.Update.Dir
	dl := s.lockOf(dir.Key)
	dl.Lock(p)
	s.applyBatch(p, []aggLog{{from: pkt.Origin, log: cn.Update}})
	s.unlockKey(dl)
	p.Send(cn.Client, &wire.Packet{Dst: cn.Client, Origin: s.cfg.ID,
		Trace: p.TraceCtx(), Body: cn.Resp})
	replyNew(s, p, pkt.Origin, wire.CommitAck{CommitID: cn.CommitID, Applied: true})
}

// ackEntries marks entries ≤ maxID applied in the WAL, trims the log and
// releases the flushes that waited for them.
func (s *Server) ackEntries(dl *dirLog, maxID uint64) {
	n := 0
	for ; n < len(dl.commits) && dl.commits[n].id <= maxID; n++ {
		s.markApplied(dl.commits[n].lsn)
	}
	dl.commits = append(dl.commits[:0], dl.commits[n:]...)
	dl.log.AckThrough(maxID)
	dl.settleFlushes(maxID, nil)
}

// adjustNlink updates a hard-linked file's shared attribute object, possibly
// on a remote server (§5.5). Returns ErrRetry on communication failure.
func (s *Server) adjustNlink(p *env.Proc, id core.FileID, delta int32) error {
	key := fileAttrKey(id)
	owner := s.ownerOfFP(key.Fingerprint())
	if owner == s.cfg.ID {
		return s.applyNlink(p, key, delta)
	}
	// A commutative one-shot: the participant applies at prepare time and
	// takes no locks, so there is nothing to decide (or, after a given-up
	// prepare, to abort).
	var plan txnPlan
	plan.at(owner).Ops = []wire.TxnOp{{Kind: wire.TxnAdjustNlink, Key: key, Entry: core.LogEntry{ID: uint64(int64(delta))}}}
	return s.endTxn(s.prepareTxn(p, &plan))
}
