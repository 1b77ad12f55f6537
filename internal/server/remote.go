package server

import (
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// The control exchanges a server serves (DESIGN.md "Waiting for a peer"): the
// rename and link coordinator reads and flushes at the owners of the keys it
// touches and detaches a directory it moves (§5.2), a participant in doubt
// polls the coordinator (serveTxnStatus) and a recovering server clones a
// peer's invalidation list (serveCloneInval, §5.4.2). Each is one serve
// function that returns its reply: its route in the dispatch table serves a
// request that came by packet, and rpc.Ask serves one in place when the owner
// is this server. The charges of the packet path are fixed; in place, the
// arrival Parse is all that is left out.

// Budgets of a call (rpc.Calls.Call), in sends that may go unanswered before
// it gives up.
const (
	// pushTries bounds a proactive change-log push: the next trigger repeats
	// it.
	pushTries = 8
	// maxTries bounds the exchanges that should not give up early: an
	// aggregation's fetch, which then proceeds with the replies at hand (a
	// peer that stays down re-delivers its entries during its own recovery,
	// §A.1), control calls, and a change-log delivery made while not serving.
	// A peer's aggregation reply and the 2PC rounds send once more.
	maxTries = 100
)

// txnSrcFlag distinguishes transaction-applied directory updates from the
// coordinator's own change-log entries in the exactly-once watermark space.
// A TxnDirUpdate entry's id comes from s.ids, so the (txn-src, dir) watermark
// at the participant applies each update exactly once across retransmissions
// and coordinator restarts.
const txnSrcFlag = env.NodeID(1) << 31

// serveReadInode answers a ReadInodeReq: key's raw inode record — with
// Flush, after this server delivered the deferred updates of the key's name
// (flushEntry). Admission as for client ops: a read routed under a stale ring
// (or racing an inbound migration copy) must answer retry — answering
// ErrNotExist from a store the group just left would fail a rename against a
// file that exists.
func (s *Server) serveReadInode(p *env.Proc, req wire.ReadInodeReq, byPacket bool) wire.ReadInodeResp {
	p.Compute(s.arrival(byPacket) + s.cfg.Costs.KVGet)
	if req.Flush {
		if err := s.flushEntry(p, req.Key); err != nil {
			return wire.ReadInodeResp{CtlResp: failed(err)}
		}
	}
	fp := req.Key.Fingerprint()
	if err := s.admitFP(p, fp); err != nil {
		return wire.ReadInodeResp{CtlResp: failed(err)}
	}
	defer s.fpExit(fp)
	var kb core.KeyBuf
	raw, ok := s.kv.Get(req.Key.AppendTo(kb[:0]))
	if !ok {
		return wire.ReadInodeResp{CtlResp: failed(core.ErrNotExist)}
	}
	return wire.ReadInodeResp{Raw: raw}
}

// serveDetachDir answers a DetachDirReq: this server, the owner of the
// directory's key, detaches the directory for its rename (detach) and returns
// its inode image and entry list as the detach's aggregation left them. The
// registration outlives the exchange: the rename's prepare here ends it once
// it holds the key's lock (handleTxnPrepare), or it lapses (detachLapse). A
// key that no longer holds the directory the rename resolved answers retry,
// and so does an incomplete aggregation or a group not served here.
func (s *Server) serveDetachDir(p *env.Proc, req wire.DetachDirReq, byPacket bool) wire.DetachDirResp {
	p.Compute(s.arrival(byPacket))
	fp := req.Key.Fingerprint()
	d, dir, err := s.detach(p, req.Key, req.Move)
	if err == nil && dir != req.Dir {
		s.fpExit(fp)
		err = core.ErrRetry // another directory now: the retry checks its loop
	}
	if err == core.ErrNotDir {
		err = core.ErrRetry // a file now: the retry renames it as one
	}
	if err != nil {
		s.endDetach(req.Key, d)
		return wire.DetachDirResp{CtlResp: failed(err)}
	}
	defer s.fpExit(fp)
	s.env.After(s.detachLapse(), func() { s.endDetach(req.Key, d) })
	p.Compute(s.cfg.Costs.KVGet)
	var kb core.KeyBuf
	raw, _ := s.kv.Get(req.Key.AppendTo(kb[:0]))
	return wire.DetachDirResp{Raw: raw, Entries: s.entryList(p, dir)}
}

// flushEntry delivers the deferred updates of key's directory entry that this
// server — the owner of key, where every asynchronous create and delete of
// the name is logged — still holds in its change-log, and returns once the
// directory's owner acknowledged them. It is the liveness half of the
// entryPending check a transaction makes on key at prepare, which votes retry
// while such an update is pending. ErrRetry when the name's group is not
// served here (the log that can hold the name is elsewhere) or the directory's
// owner stayed unreachable: the transaction must not queue behind state that
// may be missing acknowledged updates.
func (s *Server) flushEntry(p *env.Proc, key core.Key) error {
	fp := key.Fingerprint()
	if err := s.admitFP(p, fp); err != nil {
		return err
	}
	defer s.fpExit(fp)
	dl := s.clogs[key.PID]
	if dl != nil && !s.flushLog(p, dl, key.Name) {
		return core.ErrRetry
	}
	return nil
}

// serveFlushEntry answers a FlushEntryReq: flushEntry on its key.
func (s *Server) serveFlushEntry(p *env.Proc, req wire.FlushEntryReq, byPacket bool) wire.FlushEntryResp {
	p.Compute(s.arrival(byPacket))
	return wire.FlushEntryResp{CtlResp: failed(s.flushEntry(p, req.Key))}
}

// FlushGroup delivers every deferred update this server holds for a name of
// the fingerprint group, and reports whether the directories' owners
// acknowledged them all. A migration source calls it once it stopped
// admitting the group and before the copy: a name's deferred updates live
// only at the name's owner (entryPending and flushEntry look nowhere else),
// so none may stay behind when the name's group leaves.
func (s *Server) FlushGroup(p *env.Proc, fp core.Fingerprint) bool {
	for _, dl := range sortedClogs(nil, s.clogs) {
		pending := dl.log.Snapshot()
		i := slices.IndexFunc(pending, func(e core.LogEntry) bool {
			return core.FingerprintOf(dl.ref.ID, e.Name) == fp
		})
		// One flush per log: it delivers the log through its largest id.
		if i >= 0 && !s.flushLog(p, dl, pending[i].Name) {
			return false
		}
	}
	return true
}

// arrival is what a control request owes for its arrival when its exchange
// parses it: Parse by packet, nothing served in place.
func (s *Server) arrival(byPacket bool) env.Duration {
	if byPacket {
		return s.cfg.Costs.Parse
	}
	return 0
}

// failed is the header of a control reply that reports err.
func failed(err error) wire.CtlResp { return wire.CtlResp{Err: core.ErrnoOf(err)} }

// handleTxnVote collects a prepare vote at the coordinator.
func (s *Server) handleTxnVote(_ *env.Proc, _ *wire.Packet, v *wire.TxnVote) {
	i, ok := s.findTxn(v.Txn)
	if !ok {
		return
	}
	t := s.txnVotes[i]
	if !t.votes.Expects(v.From) {
		return
	}
	if v.Err != core.ErrnoOK && t.err == nil {
		t.err = v.Err.Err()
	}
	t.votes.Answer(v.From, nil)
}
