package server

import (
	"bytes"
	"cmp"
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/rpc"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// Rename and hard links are the synchronous, multi-inode operations of the
// protocol (§5.2 "Rename", §5.5 "Support of hard links"). They run as
// two-phase-commit transactions through the centralized coordinator, which
// serializes their lock-acquiring half — preventing distributed deadlock —
// and directory renames end to end, which provides the orphaned-loop check of
// §5.2. A directory rename first detaches its source at the source's owner,
// as rmdir does (serveDetachDir): the directory is planted in every server's
// invalidation list and aggregated before the rename reads what it moves.

// txnState is the participant-side context of a prepared transaction.
type txnState struct {
	id    uint64
	coord env.NodeID
	locks []*keyLock
	ops   []wire.TxnOp
	// lsn is the prepared-state WAL record, marked applied once the
	// decision resolves the transaction.
	lsn wal.LSN
}

// handleRename coordinates a rename (§5.2): up to four inodes across up to
// four servers change together. If the source is a directory, it is detached
// first and its entry list migrates to the destination owner (the
// directory's placement follows its key).
func (s *Server) handleRename(p *env.Proc, _ *wire.Packet, req *wire.RenameReq) {
	s.Stats.Ops++
	err := s.doRename(p, req)
	pkt, resp := wire.NewPacket[wire.RenameResp](req.Client, s.cfg.ID)
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.remember(req.Client, req.RPC, resp)
	s.send(p, pkt)
}

func (s *Server) doRename(p *env.Proc, req *wire.RenameReq) error {
	if err := s.checkAncestors(&req.ReqCommon); err != nil {
		return err
	}
	srcKey := core.Key{PID: req.SrcParent.ID, Name: req.SrcName}
	dstKey := core.Key{PID: req.DstParent.ID, Name: req.DstName}

	// Before it queues (outside the serialized section — these overlap across
	// concurrent renames), the rename waits for the two change-logs that can
	// hold a deferred update of its names, each at its name's owner: prepare
	// votes retry while one is pending (entryPending). The source's flush
	// rides the read that learns its type.
	srcOwner := s.ownerOfKey(srcKey)
	src, err := rpc.Ask(s, p, srcOwner, maxTries, (*Server).serveReadInode, wire.ReadInodeReq{Key: srcKey, Flush: true})
	if err != nil {
		return err
	}
	in, derr := core.DecodeInode(src.Raw)
	if derr != nil {
		return core.ErrInvalid
	}
	if srcKey == dstKey {
		// Renaming an existing object to itself is a no-op; the existence
		// read above already rejected the missing source (POSIX: rename of
		// a nonexistent path to itself is ENOENT, not success).
		return nil
	}
	dstOwner := s.ownerOfKey(dstKey)
	if _, err := rpc.Ask(s, p, dstOwner, maxTries, (*Server).serveFlushEntry, wire.FlushEntryReq{Key: dstKey}); err != nil {
		return err
	}
	isDir := in.Type == core.TypeDir

	// Serialize lock acquisition at the coordinator (§5.2: centralized rename
	// coordinator): prepares reach participants in different orders, so two
	// transactions acquiring at once could form a cross-server lock cycle, and
	// directory renames order their loop check here. See prepareTxn for what
	// the mutex does not need to cover.
	tsp := s.cfg.Trace.Start(p, "txn:run", "server")
	defer tsp.End()
	ssp := s.cfg.Trace.Start(p, "txn:serial", "server")
	s.renameMu.Lock(p)
	// Check again now that it is this transaction's turn: a directory rename
	// it queued behind planted its invalidation with its detach, before its
	// decision, and held the mutex to its end, so an ancestor that rename
	// moved reads stale only from here on.
	if err := s.checkAncestors(&req.ReqCommon); err != nil {
		s.renameMu.Unlock()
		ssp.End()
		return err
	}
	var dentries []wire.TxnOp
	var move uint64
	if isDir {
		// A directory rename moves the inode and entry list it reads here, so
		// every earlier transaction must have applied its updates of them:
		// wait out the decisions in flight. No new one can start — they are
		// entered under renameMu, which stays held to this rename's end.
		s.deciding.Lock(p)
		s.deciding.Unlock()
		move = s.ids.Next()
		if in, dentries, err = s.prepareDirMove(p, req, srcOwner, srcKey, in.ID, move); err != nil {
			s.renameMu.Unlock()
			ssp.End()
			return err
		}
	}

	// Participants and their prepare-phase checks/ops.
	now := p.Now()
	var plan txnPlan
	et := in.Type
	// Source owner: delete the source inode (and its dentries if a dir). A
	// file's body was read before the rename queued, so, as in link, the
	// source must still hold it at prepare: a chmod committed since would be
	// lost with the move. A directory was read again by its detach, under
	// renameMu with the decisions in flight waited out, and the prepare ends
	// that detach.
	sp := plan.at(srcOwner)
	srcCheck := wire.TxnCheck{Key: srcKey, MustExist: true}
	if !isDir {
		srcCheck.Same = src.Raw
	}
	sp.Check = append(sp.Check, srcCheck)
	sp.Ops = append(sp.Ops, wire.TxnOp{Kind: wire.TxnDelInode, Key: srcKey})
	if isDir {
		sp.Ops = append(sp.Ops, wire.TxnOp{Kind: wire.TxnDelDentries, Key: srcKey,
			Dir: core.DirRef{ID: in.ID}, Entry: core.LogEntry{ID: move}})
	}
	// Destination owner: create the destination inode with the same body.
	moved := *in
	dp := plan.at(dstOwner)
	dp.Check = append(dp.Check, wire.TxnCheck{Key: dstKey, MustNotExist: true})
	dp.Ops = append(dp.Ops, wire.TxnOp{Kind: wire.TxnPutInode, Key: dstKey,
		Inode: core.EncodeInode(&moved)})
	dp.Ops = append(dp.Ops, dentries...)
	// Parent owners: synchronous entry-list/attribute updates.
	spo := plan.at(s.ownerOfFP(req.SrcParent.FP))
	spo.Ops = append(spo.Ops, wire.TxnOp{Kind: wire.TxnDirUpdate, Dir: req.SrcParent,
		Entry: core.LogEntry{ID: s.ids.Next(), Time: now, Op: core.OpDelete,
			Name: req.SrcName, Type: et}})
	dpo := plan.at(s.ownerOfFP(req.DstParent.FP))
	dpo.Ops = append(dpo.Ops, wire.TxnOp{Kind: wire.TxnDirUpdate, Dir: req.DstParent,
		Entry: core.LogEntry{ID: s.ids.Next(), Time: now, Op: core.OpCreate,
			Name: req.DstName, Type: et, Perm: in.Perm}})

	t := s.prepareTxn(p, &plan)
	if !isDir {
		// Every vote is in: the next transaction may start acquiring while
		// this one is decided (see prepareTxn).
		s.deciding.RLock(p)
		s.renameMu.Unlock()
		ssp.End()
		err = s.decideTxn(p, t)
		s.deciding.RUnlock()
		return err
	}
	// A directory rename keeps the coordinator to its end: a later rename's
	// loop check must see this one's outcome.
	err = s.decideTxn(p, t)
	s.renameMu.Unlock()
	ssp.End()
	return err
}

// prepareDirMove is the directory half of a rename's serialized section: the
// orphaned-loop check, then the directory's detach at its owner
// (serveDetachDir), which returns its inode and entry list as the detach's
// aggregation left them — the entry list migrates with the inode and is
// replayed at the destination owner. move names the detach to the source
// owner's prepare.
func (s *Server) prepareDirMove(p *env.Proc, req *wire.RenameReq, srcOwner env.NodeID,
	srcKey core.Key, id core.DirID, move uint64) (*core.Inode, []wire.TxnOp, error) {

	// Moving a directory under its own descendant would disconnect the
	// subtree (§5.2). The client supplied the destination's ancestor chain
	// during resolution.
	for _, a := range req.Ancestors {
		if a == id {
			return nil, nil, core.ErrLoop
		}
	}
	det, err := rpc.Ask(s, p, srcOwner, maxTries, (*Server).serveDetachDir, wire.DetachDirReq{Key: srcKey, Dir: id, Move: move})
	if err != nil {
		return nil, nil, err
	}
	in, derr := core.DecodeInode(det.Raw)
	if derr != nil {
		return nil, nil, core.ErrInvalid
	}
	// The entry list becomes dentry puts at the new owner.
	dentries := make([]wire.TxnOp, 0, len(det.Entries))
	for _, e := range det.Entries {
		dentries = append(dentries, wire.TxnOp{
			Kind:  wire.TxnPutDentry,
			Dir:   core.DirRef{ID: in.ID},
			Entry: core.LogEntry{Name: e.Name, Type: e.Type, Perm: e.Perm},
		})
	}
	return in, dentries, nil
}

// handleLink coordinates hard-link creation (§5.5): split the source file
// into reference + attribute objects if needed, bump the link count, create
// the new reference, and update the destination parent.
func (s *Server) handleLink(p *env.Proc, _ *wire.Packet, req *wire.LinkReq) {
	s.Stats.Ops++
	err := s.doLink(p, req)
	pkt, resp := wire.NewPacket[wire.LinkResp](req.Client, s.cfg.ID)
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.remember(req.Client, req.RPC, resp)
	s.send(p, pkt)
}

func (s *Server) doLink(p *env.Proc, req *wire.LinkReq) error {
	if err := s.checkAncestors(&req.ReqCommon); err != nil {
		return err
	}
	srcKey := core.Key{PID: req.SrcParent.ID, Name: req.SrcName}
	dstKey := core.Key{PID: req.DstParent.ID, Name: req.DstName}
	// As in rename, the deferred updates of both checked names are delivered
	// before the link queues.
	if _, err := rpc.Ask(s, p, s.ownerOfKey(dstKey), maxTries, (*Server).serveFlushEntry, wire.FlushEntryReq{Key: dstKey}); err != nil {
		return err
	}
	if _, err := rpc.Ask(s, p, s.ownerOfKey(srcKey), maxTries, (*Server).serveFlushEntry, wire.FlushEntryReq{Key: srcKey}); err != nil {
		return err
	}
	tsp := s.cfg.Trace.Start(p, "txn:run", "server")
	defer tsp.End()
	ssp := s.cfg.Trace.Start(p, "txn:serial", "server")
	s.renameMu.Lock(p)
	// As in rename: a directory rename queued ahead may have moved an ancestor.
	if err := s.checkAncestors(&req.ReqCommon); err != nil {
		s.renameMu.Unlock()
		ssp.End()
		return err
	}

	srcOwner := s.ownerOfKey(srcKey)
	var in *core.Inode
	src, err := rpc.Ask(s, p, srcOwner, maxTries, (*Server).serveReadInode, wire.ReadInodeReq{Key: srcKey})
	if err == nil {
		if in, err = core.DecodeInode(src.Raw); err != nil {
			err = core.ErrInvalid
		} else if in.Type == core.TypeDir {
			err = core.ErrIsDir
		}
	}
	if err != nil {
		s.renameMu.Unlock()
		ssp.End()
		return err
	}

	now := p.Now()
	fid := in.File
	var plan txnPlan
	if fid == 0 {
		// First link: split the file into a reference and a shared
		// attribute object (§5.5).
		fid = core.FileID(core.Hash64(srcKey.PID, srcKey.Name) | 1)
		attrKey := fileAttrKey(fid)
		attr := *in
		attr.File = fid
		attr.Nlink = 2
		ref := *in
		ref.File = fid
		sp := plan.at(srcOwner)
		// The source must still be unsplit at prepare: an earlier link that
		// has left the serialized section may be undecided yet, and a second
		// split would overwrite its attribute object and lose a reference.
		sp.Check = append(sp.Check, wire.TxnCheck{Key: srcKey, MustExist: true, Same: src.Raw})
		sp.Ops = append(sp.Ops, wire.TxnOp{Kind: wire.TxnPutInode, Key: srcKey,
			Inode: core.EncodeInode(&ref)})
		ao := plan.at(s.ownerOfKey(attrKey))
		ao.Ops = append(ao.Ops, wire.TxnOp{Kind: wire.TxnPutInode, Key: attrKey,
			Inode: core.EncodeInode(&attr)})
	} else {
		attrKey := fileAttrKey(fid)
		ao := plan.at(s.ownerOfKey(attrKey))
		ao.Ops = append(ao.Ops, wire.TxnOp{Kind: wire.TxnAdjustNlink, Key: attrKey,
			Entry: core.LogEntry{ID: 1}})
	}
	newRef := *in
	newRef.File = fid
	do := plan.at(s.ownerOfKey(dstKey))
	do.Check = append(do.Check, wire.TxnCheck{Key: dstKey, MustNotExist: true})
	do.Ops = append(do.Ops, wire.TxnOp{Kind: wire.TxnPutInode, Key: dstKey,
		Inode: core.EncodeInode(&newRef)})
	po := plan.at(s.ownerOfFP(req.DstParent.FP))
	po.Ops = append(po.Ops, wire.TxnOp{Kind: wire.TxnDirUpdate, Dir: req.DstParent,
		Entry: core.LogEntry{ID: s.ids.Next(), Time: now, Op: core.OpCreate,
			Name: req.DstName, Type: in.Type, Perm: in.Perm}})

	t := s.prepareTxn(p, &plan)
	s.deciding.RLock(p)
	s.renameMu.Unlock()
	ssp.End()
	err = s.decideTxn(p, t)
	s.deciding.RUnlock()
	return err
}

// coordTxn is a coordinator-side transaction between its two halves.
type coordTxn struct {
	id uint64
	// parts are the participants, ascending; votes.Expect starts as a copy.
	// Both are carved from nodes.
	parts []env.NodeID
	votes rpc.Awaiting
	nodes [2 * maxTxnParts]env.NodeID
	// err is the prepare round's first refusal.
	err error
	// prepared reports that every vote arrived; false when the prepare round
	// gave up (or this incarnation fail-stopped) with votes outstanding.
	prepared bool
}

// prepareTxn is the first half of two-phase commit: it sends the prepares and
// collects the votes. It is the only part of a transaction that must run
// under the coordinator's renameMu. While votes are outstanding, participants
// are acquiring key locks, and two transactions acquiring at once could wait
// on each other across servers; once every vote is in, the transaction holds
// all its locks and waits for nothing, so it cannot be part of a cycle and
// the next transaction may start acquiring while this one is decided. The
// other order the mutex appears to give — TxnDirUpdate entry ids applied in
// the order they were issued, which the (Coordinator|txnSrcFlag, directory)
// watermark needs — is held by the directory's inode lock: lockTxnKeys takes
// it for every TxnDirUpdate at prepare, in issue order because prepares are
// serialized here, and the participant keeps it until it applied the decision.
//
// Every prepareTxn is followed by decideTxn (coordinated transactions) or
// endTxn (one-shot participants, which have nothing to decide).
func (s *Server) prepareTxn(p *env.Proc, plan *txnPlan) *coordTxn {
	// Ids ascend, so appending keeps txnVotes sorted, and its head is the
	// oldest round still open: every prepare acknowledges the rounds below it.
	t := &coordTxn{id: s.ids.Next()}
	s.txnVotes = append(s.txnVotes, t)
	parts := plan.parts[:plan.n]
	for i := range parts {
		parts[i].prep.Txn, parts[i].prep.From, parts[i].prep.Acked = t.id, s.cfg.ID, s.txnVotes[0].id
		t.nodes[i], t.nodes[maxTxnParts+i] = parts[i].to, parts[i].to
	}
	t.parts, t.votes.Expect = t.nodes[:plan.n:plan.n], t.nodes[maxTxnParts:maxTxnParts+plan.n]

	psp := s.cfg.Trace.Start(p, "txn:prepare", "server")
	defer psp.End()
	_, t.prepared = s.rpc.Call(p, &t.votes.Done, maxTries+1, func() {
		for i := range parts {
			replyNew(s, p, parts[i].to, parts[i].prep)
		}
	}, nil)
	return t
}

// findTxn returns the position of transaction id among the open prepare
// rounds, and whether it is open.
func (s *Server) findTxn(id uint64) (int, bool) {
	return slices.BinarySearchFunc(s.txnVotes, id, func(t *coordTxn, id uint64) int { return cmp.Compare(t.id, id) })
}

// maxTxnParts bounds a transaction's participants: a rename has the owners
// of its source, its destination and their parents; a link those of its
// source, the attribute object, its destination and its parent.
const maxTxnParts = 4

// txnPlan is a transaction's prepare round: each participant's ops and the
// checks it votes on, in ascending node order.
type txnPlan struct {
	n     int
	parts [maxTxnParts]txnPart
}

type txnPart struct {
	to   env.NodeID
	prep wire.TxnPrepare
}

// at returns participant n's prepare, adding n to the plan. The pointer is
// good until the next at.
func (pl *txnPlan) at(n env.NodeID) *wire.TxnPrepare {
	i, ok := slices.BinarySearchFunc(pl.parts[:pl.n], n, func(pt txnPart, n env.NodeID) int { return cmp.Compare(pt.to, n) })
	if !ok {
		pl.n++
		copy(pl.parts[i+1:pl.n], pl.parts[i:])
		pl.parts[i] = txnPart{to: n}
	}
	return &pl.parts[i].prep
}

// endTxn forgets a transaction's votes and reports the prepare outcome. Until
// it runs, status queries for the transaction answer Pending.
func (s *Server) endTxn(t *coordTxn) error {
	if i, ok := s.findTxn(t.id); ok {
		s.txnVotes = slices.Delete(s.txnVotes, i, i+1)
	}
	switch {
	case s.dead:
		return core.ErrTimeout
	case !t.prepared:
		return core.ErrRetry
	}
	return t.err
}

// decideTxn is the second half of two-phase commit: record the outcome and
// drive it to every participant.
//
// A prepared participant holds its key locks until it learns the outcome, so
// the decision phase must terminate at every participant: giving up after a
// retry budget would leave those locks held forever — every later operation
// on the keys (including plain stats, which share the inode locks) would
// park behind them. The coordinator therefore (a) drives an explicit abort
// decision when the prepare phase gave up, and (b) retransmits the decision
// until every participant acked or this incarnation fail-stops; a
// participant that crashed meanwhile acks the duplicate from its fresh
// incarnation. Coordinator crashes are covered by the participant-side
// termination protocol (monitorTxn / serveTxnStatus): commits are persisted
// to the WAL before the first decision packet leaves, anything else is
// presumed aborted.
func (s *Server) decideTxn(p *env.Proc, t *coordTxn) error {
	rec := noRecord // presumed abort: an incarnation with no record answers abort
	if t.prepared && t.err == nil {
		rec = s.recordCommit(p, t.id, t.parts)
	}
	if s.driveDecision(p, t.id, t.parts, rec) && rec != noRecord {
		s.ackDecision(t.id)
	}
	return s.endTxn(t)
}

// recordCommit fixes a commit outcome before any decision packet leaves:
// WAL-logged with the participant set so a restarted coordinator both
// answers in-doubt status queries with commit and re-drives the decision to
// every participant. Aborts are never recorded — an incarnation with no
// record answers presumed-abort, which is the same outcome. It returns the
// record, which the decision's sender takes (driveDecision).
func (s *Server) recordCommit(p *env.Proc, id uint64, parts []env.NodeID) wal.LSN {
	// WAL first, in-memory record after: the compute parks, and a status
	// query answered from the record in that window would be a commit
	// decision a crash could then erase — one participant committed, the
	// restarted coordinator presuming abort for the rest. Until the append
	// lands, queries see txnVotes and answer Pending.
	wsp := s.cfg.Trace.Start(p, "wal:txn-commit", "server")
	p.Compute(s.cfg.Costs.WALAppend)
	s.walBuf = encodeTxnCommit(s.walBuf[:0], id, parts)
	rec := s.logTransient(recTxnCommit)
	s.txnWAL[id] = txnCommit{lsn: rec, parts: parts}
	wsp.End()
	return rec
}

// driveDecision retransmits a decision until every participant acked, under
// the transaction's id in the call registry. The decision is commit exactly
// when it carries its recTxnCommit record, rec: a commit cannot leave before
// its record (DESIGN.md "Log, then send"), and an abort, presumed, carries
// noRecord. The budget keeps a never-recovering participant from holding this
// process alive forever; on give-up the recorded commit stays, and either the
// participant's termination protocol pulls it (TxnStatusReq) or the next
// coordinator recovery re-drives it. Reports whether all acks arrived.
func (s *Server) driveDecision(p *env.Proc, id uint64, parts []env.NodeID, rec wal.LSN) bool {
	acks := s.rpc.Await(id, slices.Clone(parts))
	defer s.rpc.End(id)
	dsp := s.cfg.Trace.Start(p, "txn:decision", "server")
	defer dsp.End()
	_, ok := s.rpc.Call(p, &acks.Done, maxTries+1, func() {
		for _, n := range parts {
			replyNew(s, p, n, wire.TxnDecision{Txn: id, Commit: rec != noRecord})
		}
	}, nil)
	return ok
}

// ackDecision retires a fully-acknowledged commit: every participant
// acked, so no one can be in doubt anymore — the in-memory record is
// droppable (bounding txnWAL to the in-flight set) and the WAL record
// is marked applied so replay need not rebuild or re-drive it; the log
// gives its payload back.
func (s *Server) ackDecision(id uint64) {
	c, ok := s.txnWAL[id]
	delete(s.txnWAL, id)
	if ok {
		mustMark(s.wal, c.lsn)
	}
}

// serveTxnStatus answers a participant's termination-protocol query.
func (s *Server) serveTxnStatus(p *env.Proc, req wire.TxnStatusReq, byPacket bool) wire.TxnStatusResp {
	p.Compute(s.arrival(byPacket))
	if _, ok := s.txnWAL[req.Txn]; ok {
		return wire.TxnStatusResp{Commit: true} // only commits are recorded
	}
	// Still collecting votes (the decision phase will reach the participant),
	// or this incarnation has not finished recovering — either way the
	// outcome is not known *yet*. Otherwise: no record of the transaction —
	// presumed abort (aborts are never recorded; decided-but-unacked aborts
	// resolve to the same answer once the abort's decision phase ends and
	// the round leaves txnVotes).
	_, voting := s.findTxn(req.Txn)
	return wire.TxnStatusResp{Pending: voting || !s.serving}
}

// redriveCommits re-sends every replayed, still-unacknowledged commit
// decision after a coordinator restart (§5.4.2 extension), one after another
// in record order: a participant that already applied it acks the duplicate,
// an in-doubt one applies and acks — once all participants answered, the
// record retires (WAL-marked) instead of leaking into every future replay.
// Recovery serves no rename or link, so txnWAL holds the replayed decisions
// alone.
func (s *Server) redriveCommits(p *env.Proc) {
	for _, id := range s.recordedCommits() {
		c := s.txnWAL[id]
		if s.driveDecision(p, id, c.parts, c.lsn) {
			s.ackDecision(id)
		}
	}
}

// recordedCommits returns the transactions of txnWAL in record order.
func (s *Server) recordedCommits() []uint64 {
	ids := make([]uint64, 0, len(s.txnWAL))
	for id := range s.txnWAL {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b uint64) int { return cmp.Compare(s.txnWAL[a].lsn, s.txnWAL[b].lsn) })
	return ids
}

// inDoubtAfter is how long a prepared participant waits for the decision
// before starting to poll the coordinator. Generous: with a live coordinator
// the decision retransmits on RetryTimeout and always wins this race.
func (s *Server) inDoubtAfter() env.Duration { return 4 * s.cfg.RetryTimeout }

// watchTxn arms the participant-side termination protocol for a prepared
// transaction: if the decision has not arrived after inDoubtAfter, a monitor
// process polls the coordinator until the outcome is known and applies it.
// Without this, a coordinator crash strands the participant's key locks
// forever (every later operation on those keys would park behind them).
func (s *Server) watchTxn(txn uint64, coord env.NodeID) {
	s.env.After(s.inDoubtAfter(), func() {
		_, pending := s.txns[txn]
		if !pending || s.dead {
			return
		}
		s.env.Spawn(s.cfg.ID, func(p *env.Proc) { s.monitorTxn(p, txn, coord) })
	})
}

func (s *Server) monitorTxn(p *env.Proc, txn uint64, coord env.NodeID) {
	// Polling is bounded: against a coordinator that never comes back the
	// transaction cannot be terminated safely (2PC's blocking case —
	// unilateral abort could break atomicity against a commit some other
	// participant applied), so after the budget the monitor stops and the
	// keys stay locked. Operations on them then fail with client-side
	// timeouts — a detectable wedge — instead of the monitor keeping the
	// simulation alive forever. Validated plans always recover crashes, so
	// the budget is only reachable under hand-written scenarios.
	for try := 0; try < maxTries; try++ {
		if s.dead {
			return
		}
		_, pending := s.txns[txn]
		if !pending {
			return // decision arrived while we slept or polled
		}
		resp, err := rpc.Ask(s, p, coord, maxTries, (*Server).serveTxnStatus, wire.TxnStatusReq{Txn: txn})
		if err != nil {
			// Coordinator unreachable (crashed or partitioned): keep
			// waiting — presumed abort may only be applied on a definitive
			// answer from a coordinator incarnation.
			p.Sleep(s.inDoubtAfter())
			continue
		}
		if resp.Pending {
			p.Sleep(s.inDoubtAfter())
			continue
		}
		s.handleTxnDecision(p, nil, &wire.TxnDecision{Txn: txn, Commit: resp.Commit})
		return
	}
}

// handleTxnPrepare is the participant side of phase one: lock keys in global
// order, run checks, vote.
func (s *Server) handleTxnPrepare(p *env.Proc, _ *wire.Packet, tp *wire.TxnPrepare) {
	c := &s.cfg.Costs
	p.Compute(c.Parse + c.TxnOverhead)
	// Retransmission dedup: the first prepare may block acquiring locks, so
	// a duplicate must never run a second lock acquisition — the zombie
	// would hold the keys forever after the decision released the original.
	// A duplicate of a vote cast replays it (the original execution logged
	// it if it prepared); one of a prepare still acquiring is dropped, as is
	// one of a round the coordinator has ended.
	if !s.prepares.Admit(tp.From, tp.Txn, tp.Acked, func(errno core.Errno) { s.vote(p, tp, errno, noRecord) }) {
		return
	}

	// One-shot commutative application (adjustNlink).
	autoOnly := true
	for _, op := range tp.Ops {
		if op.Kind != wire.TxnAdjustNlink {
			autoOnly = false
		}
	}
	if autoOnly && len(tp.Check) == 0 {
		// Ownership + arrival-gate admission per touched group: an nlink
		// adjustment routed under a stale ring (or racing an inbound
		// migration copy) must vote retry rather than apply against a store
		// that does not — or no longer does — hold the attribute object.
		var buf [2 * maxTxnParts]core.Fingerprint
		afps := txnFPs(buf[:0], tp.Ops, nil)
		if aerr := s.admitFPs(p, afps); aerr != nil {
			s.vote(p, tp, core.ErrnoOf(aerr), noRecord)
			return
		}
		var err error
		for _, op := range tp.Ops {
			delta := int32(int64(op.Entry.ID))
			if e := s.applyNlink(p, op.Key, delta); e != nil && err == nil {
				err = e
			}
		}
		s.exitFPs(afps)
		// Nothing is left prepared: applyNlink logged each adjustment.
		s.vote(p, tp, core.ErrnoOf(err), noRecord)
		return
	}

	// Ownership + arrival-gate admission over the transaction's whole
	// fingerprint footprint, before any lock is taken. The busy references
	// are held through lock acquisition, the checks, and the prepared-state
	// WAL record; once the transaction registers in s.txns the prepared-txn
	// scan (preparedTxnOnFP) keeps migration out and the references drop —
	// a group touched by a prepared-but-undecided transaction never
	// migrates, so the decision always finds the keys where they were
	// prepared.
	var buf [2 * maxTxnParts]core.Fingerprint
	fps := txnFPs(buf[:0], tp.Ops, tp.Check)
	if aerr := s.admitFPs(p, fps); aerr != nil {
		s.vote(p, tp, core.ErrnoOf(aerr), noRecord)
		return
	}
	st := &txnState{id: tp.Txn, coord: tp.From, ops: tp.Ops}
	st.locks = s.lockTxnKeys(p, make([]*keyLock, 0, len(tp.Ops)+len(tp.Check)), tp.Ops, tp.Check)

	var err error
	for _, op := range tp.Ops {
		if op.Kind != wire.TxnDelDentries {
			continue
		}
		// A directory rename moves what its detach read here: the key's lock,
		// held from here to the decision, takes over from the detach. One
		// that lapsed, or never was, may have let a lookup in, and then a
		// create the moved entry list lacks.
		if d := s.removals[op.Key]; d != nil && d.move == op.Entry.ID {
			s.endDetach(op.Key, d)
		} else {
			err = core.ErrRetry
		}
	}
	for _, ck := range tp.Check {
		if err != nil {
			break
		}
		p.Compute(c.KVGet)
		var in core.Inode
		rerr := s.readInode(ck.Key, &in)
		switch {
		case ck.MustExist && rerr == core.ErrNotExist:
			err = core.ErrNotExist
		case ck.MustNotExist && rerr != core.ErrNotExist:
			err = core.ErrExist
		case ck.MustExist && ck.IsDir && (rerr != nil || in.Type != core.TypeDir):
			err = core.ErrNotDir
		case ck.Same != nil && !s.inodeIs(ck.Key, ck.Same), s.entryPending(ck.Key):
			err = core.ErrRetry
		}
	}
	if err != nil {
		for _, l := range st.locks {
			s.unlockKey(l)
		}
		s.exitFPs(fps)
		s.vote(p, tp, core.ErrnoOf(err), noRecord)
		return
	}
	// Persist the prepared state before the vote leaves: once the
	// coordinator may commit on our vote, a restarted incarnation of this
	// participant must still be able to APPLY that commit — acking a
	// re-driven decision without the ops would retire a partially-applied
	// transaction (a rename whose delete landed but whose insert vanished
	// with the crash). Recovery rebuilds the locks, the vote, and the
	// monitor from this record; the decision marks it applied.
	wsp := s.cfg.Trace.Start(p, "wal:txn-prepare", "server")
	p.Compute(c.WALAppend)
	s.walBuf = encodeTxnPrepare(s.walBuf[:0], tp.Txn, tp.From, tp.Ops)
	st.lsn = s.logTransient(recTxnPrepare)
	wsp.End()
	s.txns[tp.Txn] = st
	// Registered: the prepared-txn scan now covers the footprint, in the same
	// event as the registration — at no instant is the group neither busy nor
	// prepared.
	s.exitFPs(fps)
	s.vote(p, tp, core.ErrnoOK, st.lsn)
}

// vote records errno as tp's vote and sends it to the coordinator. The vote
// that leaves this participant prepared carries its recTxnPrepare record,
// rec: the coordinator may commit on it, so it must not leave before a
// restarted incarnation could apply that commit (DESIGN.md "Log, then send").
// It also arms the termination protocol, in case the coordinator dies before
// the decision reaches us. Every other vote — a replay, a refusal, the
// commutative one-shot — leaves nothing prepared and carries noRecord.
func (s *Server) vote(p *env.Proc, tp *wire.TxnPrepare, errno core.Errno, rec wal.LSN) {
	s.prepares.Put(tp.From, tp.Txn, errno)
	if rec != noRecord {
		s.watchTxn(tp.Txn, tp.From)
	}
	replyNew(s, p, tp.From, wire.TxnVote{Txn: tp.Txn, From: s.cfg.ID, Err: errno})
}

// entryPending reports whether this server still holds an unapplied deferred
// update of key's directory entry. Every asynchronous create and delete of a
// name is logged by the name's owner — this server, for a key a transaction
// checks here — and delivered before the name's group migrates away
// (FlushGroup), so no other log holds one; the key's lock, held from here to
// the decision, keeps further ones out. A transaction's own update of that
// entry is applied directly at the directory's owner, so it must not overtake
// a deferred one: a later aggregation would re-apply the older update over it
// (a renamed-away name listed again). The vote is retry; the coordinator's
// next attempt starts with a flush of the name here (flushEntry), which drains
// the entry.
func (s *Server) entryPending(key core.Key) bool {
	dl := s.clogs[key.PID]
	if dl == nil {
		return false
	}
	_, named := dl.pendingNamed(key.Name)
	return named
}

// inodeIs reports whether key's stored record is still raw.
func (s *Server) inodeIs(key core.Key, raw []byte) bool {
	var kb core.KeyBuf
	cur, ok := s.kv.GetView(key.AppendTo(kb[:0]))
	return ok && bytes.Equal(cur, raw)
}

// lockTxnKeys collects into buf's array (grown if short), orders (global key
// order — defense in depth against lock cycles between transactions) and
// acquires the locks a prepared transaction holds until its decision, one pin
// and one hold per key.
//
//detlint:lock-escapes the acquired key locks are returned to the caller and held in the prepared-txn record until handleTxnDecision releases them
func (s *Server) lockTxnKeys(p *env.Proc, buf []*keyLock, ops []wire.TxnOp, checks []wire.TxnCheck) []*keyLock {
	locks := buf[:0]
	for _, op := range ops {
		switch op.Kind {
		case wire.TxnPutInode, wire.TxnDelInode, wire.TxnAdjustNlink:
			locks = append(locks, s.lockOf(op.Key))
		case wire.TxnDirUpdate:
			locks = append(locks, s.lockOf(op.Dir.Key))
		}
	}
	for _, ck := range checks {
		locks = append(locks, s.lockOf(ck.Key))
	}
	slices.SortFunc(locks, func(a, b *keyLock) int { return cmpKey(a.key, b.key) })
	held := locks[:0]
	for _, l := range locks {
		if len(held) > 0 && l == held[len(held)-1] {
			s.unpin(l) // a repeated key sorts next to itself
			continue
		}
		l.Lock(p)
		held = append(held, l)
	}
	return held
}

// lockPreparedTxns takes the key locks of the prepared transactions replay
// registered and arms their termination monitors, in record order (§5.4.2
// extension). Recover runs it in the event replay ends: every lock is free,
// so nothing parks, and a decision or retransmitted prepare that arrives
// during the redo charge finds the transaction whole.
func (s *Server) lockPreparedTxns(p *env.Proc) {
	for _, st := range s.preparedTxns() {
		st.locks = s.lockTxnKeys(p, nil, st.ops, nil)
		s.watchTxn(st.id, st.coord)
	}
}

// preparedTxns returns the prepared transactions in record order.
func (s *Server) preparedTxns() []*txnState {
	txns := make([]*txnState, 0, len(s.txns))
	for _, st := range s.txns {
		txns = append(txns, st)
	}
	slices.SortFunc(txns, func(a, b *txnState) int { return cmp.Compare(a.lsn, b.lsn) })
	return txns
}

// handleTxnDecision is the participant side of phase two.
func (s *Server) handleTxnDecision(p *env.Proc, _ *wire.Packet, td *wire.TxnDecision) {
	c := &s.cfg.Costs
	st := s.txns[td.Txn]
	delete(s.txns, td.Txn)
	if st == nil {
		// Duplicate decision: ack again.
		replyNew(s, p, s.cfg.Coordinator, wire.TxnDone{Txn: td.Txn, From: s.cfg.ID})
		return
	}
	// Busy references re-taken in the same event as the deregistration above:
	// the apply phase below parks, and without them a migration could observe
	// the group neither busy nor prepared and copy it away mid-apply.
	var buf [2 * maxTxnParts]core.Fingerprint
	fps := txnFPs(buf[:0], st.ops, nil)
	for _, fp := range fps {
		s.fpEnter(fp)
	}
	if td.Commit {
		for _, op := range st.ops {
			switch op.Kind {
			case wire.TxnPutInode:
				p.Compute(c.WALAppend + c.KVPut)
				var in core.Inode
				if core.DecodeInodeInto(&in, op.Inode) == nil {
					s.putInode(op.Key, &in)
				}
			case wire.TxnDelInode:
				p.Compute(c.WALAppend + c.KVDel)
				s.putInode(op.Key, nil)
			case wire.TxnDirUpdate:
				// Synchronous single-entry directory update, logged like an
				// aggregation application for recovery. The pseudo-source
				// keeps the exactly-once watermark separate from the
				// coordinator's own change-log entries.
				s.applyBatch(p, []aggLog{{from: s.cfg.Coordinator | txnSrcFlag, log: wire.DirLog{
					Dir: op.Dir, Entries: []core.LogEntry{op.Entry}}}})
			case wire.TxnAdjustNlink:
				s.applyNlinkLocked(p, op.Key, int32(int64(op.Entry.ID)))
			case wire.TxnPutDentry:
				p.Compute(c.WALAppend + c.KVPut)
				s.walBuf = encodeDentryRec(s.walBuf[:0], op.Dir.ID, op.Entry.Name, true, op.Entry.Type, op.Entry.Perm)
				s.logRecord(recDentry)
				s.putDentry(op.Dir.ID, core.DirEntry{
					Name: op.Entry.Name, Type: op.Entry.Type, Perm: op.Entry.Perm}, true)
			case wire.TxnDelDentries:
				p.Compute(c.WALAppend)
				s.walBuf = encodeDelDentries(s.walBuf[:0], op.Dir.ID)
				s.logRecord(recDelDentries)
				s.delDentries(op.Dir.ID, func(n int) { p.Compute(env.Duration(n) * c.KVDel) })
			}
		}
	}
	for _, l := range st.locks {
		s.unlockKey(l)
	}
	// Resolved: the prepared-state record need not be rebuilt on replay, and
	// the log gives its payload back (st.ops may alias it: a view stays
	// readable).
	mustMark(s.wal, st.lsn)
	s.exitFPs(fps)
	replyNew(s, p, s.cfg.Coordinator, wire.TxnDone{Txn: td.Txn, From: s.cfg.ID})
}
