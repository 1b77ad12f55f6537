package server

import (
	"cmp"
	"fmt"
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/rpc"
	"switchfs/internal/wal"
	"switchfs/internal/wire"
)

// Crash simulates a fail-stop: the node drops off the network and all
// volatile state is lost — the parked requests with it. The WAL (stable
// storage) survives and is reused by Restart. The dead flag ends this
// incarnation's calls (rpc.Calls) — after Restart re-registers the node id,
// a retransmission from the old incarnation would otherwise spin forever
// against a successor that no longer holds its contexts.
func (s *Server) Crash() {
	s.dead = true
	s.SetServing(false)
	s.parked, s.parkedAt = nil, nil
	s.node.SetDown(true)
}

// Restart builds a fresh server over the surviving WAL and re-registers the
// node. The caller then runs Recover on a process to replay and re-join.
func Restart(e *env.Sim, cfg Config, log *wal.Mem) *Server {
	cfg.WAL = log
	return New(e, cfg)
}

// Recover implements §5.4.2 server recovery: (1) redo WAL records to rebuild
// the key-value store and the not-yet-applied change-log entries, (2) push
// the rebuilt change-logs and proactively aggregate every directory this
// server owns, so aggregations interrupted by the crash run to completion,
// (3) clone the invalidation list from a peer, then resume serving — which
// releases the client requests parked meanwhile. With a Recorder attached
// the run is its own root span, one child per phase. An unreplayable log
// leaves the server fail-stopped.
func (s *Server) Recover(p *env.Proc) error {
	s.recovering = true
	s.SetServing(false)
	s.node.SetDown(false)
	root := s.cfg.Trace.StartBackground(p, "recover", "server")
	defer root.End()
	phase := func(name string, us *uint64, run func()) {
		sp := s.cfg.Trace.Start(p, name, "server")
		start := p.Now()
		run()
		*us += uint64((p.Now() - start) / env.Microsecond)
		sp.End()
	}

	// Redo cost: recovery time is proportional to the records replayed
	// (§7.7; checkpointing would shrink it, as the paper notes), spread over
	// the cores by the key each record writes.
	plan, err := s.replayWAL()
	if err != nil {
		s.recovering = false
		s.Crash()
		return err
	}
	s.Stats.RecoverRedoRecords += uint64(s.wal.Len())
	s.Stats.RecoverRedoLongestLane += uint64(plan.longest())
	phase("recover:redo", &s.Stats.RecoverRedoUs, func() {
		for _, lanes := range plan.sections {
			burnLanes(p, lanes, s.cfg.Costs.WALReplay)
		}
	})

	// Rebuild in-doubt 2PC participant state (locks, replayed votes,
	// termination monitors) before anything else can touch those keys.
	s.rearmPreparedTxns(p)

	// Re-deliver rebuilt change-logs: their fingerprints may have been
	// inserted before the crash (reads will aggregate) or may never have
	// made it to the switch — pushing them to their owners restores
	// visibility either way.
	phase("recover:redeliver", &s.Stats.RecoverRedeliverUs, func() { s.deliverAll(p) })

	// Proactively aggregate every directory this server owns (§A.1): any
	// aggregation it had issued before the crash completes now.
	phase("recover:aggregate", &s.Stats.RecoverAggregateUs, func() {
		fps := s.ownedDirFingerprints()
		together(p, len(fps), func(wp *env.Proc, i int) {
			s.aggregateFP(wp, fps[i], &aggOpts{force: true})
		})
	})

	// Re-drive un-acked 2PC commit decisions rebuilt from the WAL: in-doubt
	// participants apply and ack, already-resolved ones ack the duplicate;
	// fully-acked records retire so they stop replaying.
	s.redriveCommits(p)

	phase("recover:clone", &s.Stats.RecoverCloneUs, func() { s.cloneInval(p) })

	s.recovering = false
	s.SetServing(true)
	return nil
}

// cloneInval copies the invalidation list of the first reachable peer, one
// entry per distinct directory. The copies are numbered from this
// incarnation's sequence, which starts above every predecessor's: a client's
// watermark may have consumed the predecessor's entries up to a number the
// distinct copies alone would not reach again.
func (s *Server) cloneInval(p *env.Proc) {
	for _, peer := range s.cfg.Peers {
		if peer == s.cfg.ID {
			continue
		}
		list, err := rpc.Ask(s, p, peer, maxTries, (*Server).serveCloneInval, wire.CloneInvalReq{})
		if err != nil {
			continue
		}
		for _, e := range list.Entries {
			if _, ok := s.invalSet[e.Dir]; !ok {
				s.addInval(e.Dir)
			}
		}
		return
	}
}

// together runs fn(·, 0) … fn(·, n-1), each on a process of its own, and
// returns when all have finished: n independent round trips cost the longest,
// and an unreachable peer one retry budget instead of one per item.
func together(p *env.Proc, n int, fn func(wp *env.Proc, i int)) {
	done := make([]*env.Future, n)
	for i := range done {
		fut := env.NewFuture()
		done[i] = fut
		p.Spawn(func(wp *env.Proc) {
			fn(wp, i)
			fut.Complete(nil)
		})
	}
	for _, fut := range done {
		fut.Wait(p)
	}
}

// redoPlan is the virtual-time shape of one redo pass (an extension: the
// paper replays its log on one core). Records that write one key — an inode,
// a directory entry, a watermark — take the redo lane their key hashes to, so
// per-key order is LSN order by construction and the lanes run side by side:
// size deltas and max-timestamps commute (applyBatch's argument for its
// core-parallel entry apply). Records that span keys are barriers: a serial
// section of their own between two parallel ones.
type redoPlan struct {
	sections [][]int // run one after another; records per lane
	serial   bool    // the last section is a run of barriers
	lanes    int
}

// section returns the open section of the given kind, closing the other.
func (r *redoPlan) section(serial bool) []int {
	if len(r.sections) == 0 || r.serial != serial {
		r.sections = append(r.sections, make([]int, r.lanes))
		r.serial = serial
	}
	return r.sections[len(r.sections)-1]
}

// keyed charges one record to the lane of the key it writes.
func (r *redoPlan) keyed(key uint64) { r.section(false)[key%uint64(r.lanes)]++ }

// barrier charges one record that spans keys: every lane waits for it.
func (r *redoPlan) barrier() { r.section(true)[0]++ }

// longest is the record count on the plan's critical path: what the redo
// costs in units of Costs.WALReplay.
func (r *redoPlan) longest() (n int) {
	for _, lanes := range r.sections {
		n += slices.Max(lanes)
	}
	return n
}

// replayWAL redoes committed operations in commit order (§A.2.2: recovery
// reproduces the pre-crash serialization) on the host, one record after
// another, and returns what the pass costs in virtual time.
func (s *Server) replayWAL() (redoPlan, error) {
	plan := redoPlan{lanes: s.cfg.Cores}
	s.bootstrapRoot()
	err := s.wal.Replay(func(r wal.Record) error {
		switch r.Kind {
		case recCommit:
			key, parent, entry, in, err := decodeCommit(r.Payload)
			if err != nil {
				return err
			}
			plan.keyed(core.Hash64(key.PID, key.Name))
			switch entry.Op {
			case core.OpCreate, core.OpMkdir:
				s.storeInode(key, in)
			case core.OpDelete, core.OpRmdir:
				s.storeInode(key, nil)
			}
			if !r.Applied {
				dl := s.clogOf(parent)
				dl.log.Append(entry)
				dl.walLSN[entry.ID] = r.LSN
			}
			if entry.Op == core.OpRmdir {
				s.addInval(in.ID)
			}
		case recAggEntry:
			src, dir, entry, err := decodeAggEntry(r.Payload)
			if err != nil {
				return err
			}
			plan.keyed(core.Hash64(dir.ID, entry.Name))
			s.redoAggEntry(src, dir, entry)
		case recInode:
			key, in, err := decodeInodeRec(r.Payload)
			if err != nil {
				return err
			}
			plan.keyed(core.Hash64(key.PID, key.Name))
			s.storeInode(key, in)
		case recDentry:
			dir, e, put, err := decodeDentryRec(r.Payload)
			if err != nil {
				return err
			}
			plan.keyed(core.Hash64(dir, e.Name))
			s.putDentry(dir, e, put)
		case recMark:
			src, dir, id, err := decodeMark(r.Payload)
			if err != nil {
				return err
			}
			plan.keyed(core.Hash64(dir, "") ^ uint64(src))
			s.setAppliedMark(src, dir, id)
		case recDelDentries:
			dir, err := decodeDelDentries(r.Payload)
			if err != nil {
				return err
			}
			plan.barrier()
			s.delDentries(dir, nil)
		case recTxnCommit:
			plan.barrier()
			// A commit decision some participant may not have learned yet
			// (the record is marked applied once every participant acked):
			// rebuild it so in-doubt status queries are answered with commit
			// instead of presumed-abort, and queue it for re-delivery so the
			// record can retire instead of replaying forever.
			if !r.Applied {
				txn, parts, err := decodeTxnCommit(r.Payload)
				if err != nil {
					return err
				}
				s.txnWAL[txn] = r.LSN
				s.txnRedrive = append(s.txnRedrive, txnRedrive{txn: txn, parts: parts})
			}
		case recEvict:
			fp, err := decodeEvict(r.Payload)
			if err != nil {
				return err
			}
			plan.barrier()
			// The group migrated away: drop its records, or this restart
			// would resurrect inodes that live (and have advanced) on the
			// server the group moved to.
			s.evictFP(fp)
		case recTxnPrepare:
			plan.barrier()
			// A prepared, undecided transaction: this incarnation must hold
			// its locks and be able to apply the (possibly already-decided)
			// commit — rebuilt after replay by rearmPreparedTxns.
			if !r.Applied {
				txn, coord, ops, err := decodeTxnPrepare(r.Payload)
				if err != nil {
					return err
				}
				s.txnRearm = append(s.txnRearm, txnRearm{txn: txn, coord: coord, ops: ops, lsn: r.LSN})
			}
		default:
			return fmt.Errorf("server: unknown WAL record kind %d", r.Kind)
		}
		return nil
	})
	return plan, err
}

// redoAggEntry re-applies one owner-side change-log application during
// replay. The watermark check keeps the redo idempotent.
func (s *Server) redoAggEntry(src env.NodeID, dir core.DirRef, e core.LogEntry) {
	mark := s.applied[appliedKey{src: src, dir: dir.ID}]
	if e.ID <= mark {
		return
	}
	s.applied[appliedKey{src: src, dir: dir.ID}] = e.ID
	var in core.Inode
	if s.readInode(dir.Key, &in) == nil {
		one := core.Compact([]core.LogEntry{e})
		one.ApplyToAttr(&in.Attr)
		s.storeInode(dir.Key, &in)
		s.applyDentry(in.ID, e)
	}
}

// ownedDirFingerprints scans the KV store for directory inodes this server
// owns and returns their distinct fingerprints.
func (s *Server) ownedDirFingerprints() []core.Fingerprint {
	seen := make(map[core.Fingerprint]bool)
	var out []core.Fingerprint
	var in core.Inode // one value for the whole scan, dentries included
	s.kv.Scan(nil, func(k, v []byte) bool {
		key, err := core.DecodeKey(k)
		if err != nil {
			return true
		}
		if core.DecodeInodeInto(&in, v) != nil || in.Type != core.TypeDir {
			return true
		}
		fp := key.Fingerprint()
		if s.ownerOfFP(fp) != s.cfg.ID {
			return true // a dentry record or a migrated leftover
		}
		if !seen[fp] {
			seen[fp] = true
			out = append(out, fp)
		}
		return true
	})
	return out
}

// deliverAll delivers every change-log that holds entries, all in flight
// together (Recover, FlushAll).
func (s *Server) deliverAll(p *env.Proc) {
	logs := slices.DeleteFunc(sortedClogs(nil, s.clogs), func(dl *dirLog) bool { return dl.log.Len() == 0 })
	together(p, len(logs), func(wp *env.Proc, i int) {
		s.deliver(wp, logs[i], logs[i].log.Snapshot())
	})
}

// serveCloneInval serves a recovering peer (§5.4.2) this server's
// invalidation list.
func (s *Server) serveCloneInval(_ *env.Proc, _ wire.CloneInvalReq, _ bool) wire.CloneInvalResp {
	return wire.CloneInvalResp{Entries: append([]wire.InvalEntry(nil), s.inval...)}
}

// FlushAll delivers every pending change-log entry to its owner; with the
// dirty set reset, the filesystem returns to a consistent all-normal state
// (switch recovery, §5.4.2; reconfiguration, §5.5). Serving stops during the
// flush.
func (s *Server) FlushAll(p *env.Proc) {
	s.SetServing(false)
	s.deliverAll(p)
	s.SetServing(true)
}

// InjectInode installs an inode record directly (fixture loading); when log
// is set the record is WAL-backed so it survives a simulated crash.
func (s *Server) InjectInode(key core.Key, in *core.Inode, log bool) {
	if log {
		s.walBuf = encodeInodeRec(s.walBuf[:0], key, in)
		s.logRecord(recInode)
	}
	s.storeInode(key, in)
}

// InjectDentry installs a directory-entry record directly (fixture loading).
func (s *Server) InjectDentry(dir core.DirID, e core.DirEntry, log bool) {
	if log {
		s.walBuf = encodeDentryRec(s.walBuf[:0], dir, e.Name, true, e.Type, e.Perm)
		s.logRecord(recDentry)
	}
	s.putDentry(dir, e, true)
}

// AppliedMarks returns dir's per-source exactly-once watermarks, sorted by
// source id (directory migration).
func (s *Server) AppliedMarks(dir core.DirID) []AppliedMark {
	var out []AppliedMark
	for k, v := range s.applied {
		if k.dir == dir {
			out = append(out, AppliedMark{Src: k.src, ID: v})
		}
	}
	slices.SortFunc(out, func(a, b AppliedMark) int { return cmp.Compare(a.Src, b.Src) })
	return out
}

// AppliedMark is one (source, high-watermark) pair of a directory.
type AppliedMark struct {
	Src env.NodeID
	ID  uint64
}

// InjectAppliedMark installs a watermark transferred with a migrated
// directory, WAL-backed so it survives this server's later crashes. Entries
// a source re-pushes because the previous owner's ack was lost stay
// deduplicated at this owner.
func (s *Server) InjectAppliedMark(src env.NodeID, dir core.DirID, id uint64, log bool) {
	if log {
		s.walBuf = encodeMark(s.walBuf[:0], src, dir, id)
		s.logRecord(recMark)
	}
	s.setAppliedMark(src, dir, id)
}

// AggsQuiescent reports that no aggregation is in flight on this server,
// neither as owner (aggs) nor as a peer holding change-log locks for one
// (peerAggs), and that no §5.4.2 recovery is mid-run (recovery issues a
// sequence of pushes and forced aggregations that must complete under one
// ring). Reconfiguration must drain both before remapping: an aggregation
// completing across the remap would apply collected entries — and let
// peers trim them — at a server that no longer owns the directory.
func (s *Server) AggsQuiescent() bool {
	if s.recovering || len(s.aggs) != 0 || len(s.peerAggs) != 0 {
		return false
	}
	// aggs deregisters before the apply phase; aggActive covers an
	// aggregation end to end. The scan is a pure any-match, so map order
	// cannot leak into behavior.
	for _, st := range s.fps {
		if st.aggActive {
			return false
		}
	}
	return true
}

// SetCores resizes the server's usable core count in place (gray failure:
// core degradation). Restores with the configured count.
func (s *Server) SetCores(k int) { s.node.SetCores(k) }

// Cores reports the configured (healthy) core count.
func (s *Server) Cores() int { return s.cfg.Cores }

// Serving reports whether the server accepts normal requests.
func (s *Server) Serving() bool { return s.serving }

// PendingTxnCommitRecords counts un-retired 2PC commit-decision records in
// the WAL (diagnostics; the redrive regression tests assert recovery
// retires them instead of replaying them forever).
func (s *Server) PendingTxnCommitRecords() int {
	n := 0
	_ = s.wal.Replay(func(r wal.Record) error {
		if r.Kind == recTxnCommit && !r.Applied {
			n++
		}
		return nil
	})
	return n
}

// HeldAggs returns the ids of the aggregations holding change-log locks on
// this server, ascending (diagnostics: an owner's recovery must leave none of
// its predecessor's behind).
func (s *Server) HeldAggs() []uint64 {
	var ids []uint64
	for _, dl := range s.clogs {
		if dl.heldBy != 0 && !slices.Contains(ids, dl.heldBy) {
			ids = append(ids, dl.heldBy)
		}
	}
	slices.Sort(ids)
	return ids
}

// PendingClogEntries counts not-yet-applied change-log entries across all
// directories (diagnostics).
func (s *Server) PendingClogEntries() int {
	n := 0
	for _, dl := range s.clogs {
		n += dl.log.Len()
	}
	return n
}

// SetPeers replaces the peer set after cluster reconfiguration (§5.5).
func (s *Server) SetPeers(peers []env.NodeID) {
	s.cfg.Peers = append([]env.NodeID(nil), peers...)
}
