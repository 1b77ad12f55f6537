package server

import (
	"slices"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Control-plane helpers used by the rename/link coordinator and recovery.

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

// ctlCall performs a control-plane round trip to a peer: build makes the
// request for the call's id, and every try sends it in a packet of its own.
func ctlCall[B any, P interface {
	*B
	wire.Msg
}](s *Server, p *env.Proc, to env.NodeID, build func(ctl uint64) B) (wire.Msg, error) {
	id := s.ids.Next()
	req := build(id)
	v, ok := s.rpc.Request(p, id, maxTries, func() { replyNew[B, P](s, p, to, req) })
	if !ok {
		return nil, core.ErrTimeout
	}
	return v.(wire.Msg), nil
}

// txnSrcFlag distinguishes transaction-applied directory updates from the
// coordinator's own change-log entries in the exactly-once watermark space.
// A TxnDirUpdate entry's id comes from s.ids, so the (txn-src, dir) watermark
// at the participant applies each update exactly once across retransmissions
// and coordinator restarts.
const txnSrcFlag = env.NodeID(1) << 31

// readRemoteInode reads a raw inode record from its owner — with flush, after
// the owner delivered the deferred updates of the key's name (flushEntry), in
// the same round trip.
func (s *Server) readRemoteInode(p *env.Proc, owner env.NodeID, key core.Key, flush bool) ([]byte, error) {
	if owner == s.cfg.ID {
		if flush {
			if err := s.flushEntry(p, key); err != nil {
				return nil, err
			}
		}
		p.Compute(s.cfg.Costs.KVGet)
		// Same admission as the remote path: the group may have migrated away
		// between the caller's owner computation and this read.
		fp := key.Fingerprint()
		if err := s.admitFP(p, fp); err != nil {
			return nil, err
		}
		var kb core.KeyBuf
		raw, ok := s.kv.Get(key.AppendTo(kb[:0]))
		s.fpExit(fp)
		if !ok {
			return nil, core.ErrNotExist
		}
		return raw, nil
	}
	v, err := ctlCall(s, p, owner, func(ctl uint64) wire.ReadInodeReq {
		return wire.ReadInodeReq{Ctl: ctl, From: s.cfg.ID, Key: key, Flush: flush}
	})
	if err != nil {
		return nil, err
	}
	resp := v.(*wire.ReadInodeResp)
	if resp.Err != core.ErrnoOK {
		return nil, resp.Err.Err()
	}
	return resp.Raw, nil
}

func (s *Server) handleReadInode(p *env.Proc, _ *wire.Packet, req *wire.ReadInodeReq) {
	p.Compute(s.cfg.Costs.Parse + s.cfg.Costs.KVGet)
	pkt, resp := wire.NewPacket[wire.ReadInodeResp](req.From, s.cfg.ID)
	resp.Ctl = req.Ctl
	if req.Flush {
		if err := s.flushEntry(p, req.Key); err != nil {
			resp.Err = core.ErrnoOf(err)
			s.send(p, pkt)
			return
		}
	}
	// Admission as for client ops: a read routed under a stale ring (or
	// racing an inbound migration copy) must answer retry — answering
	// ErrNotExist from a store the group just left would fail a rename
	// against a file that exists.
	fp := req.Key.Fingerprint()
	if err := s.admitFP(p, fp); err != nil {
		resp.Err = core.ErrnoOf(err)
		s.send(p, pkt)
		return
	}
	var kb core.KeyBuf
	raw, ok := s.kv.Get(req.Key.AppendTo(kb[:0]))
	s.fpExit(fp)
	if !ok {
		resp.Err = core.ErrnoNotExist
	} else {
		resp.Raw = raw
	}
	s.send(p, pkt)
}

// collectDentries fetches a directory's full entry list from its owner and
// converts it into dentry-put transaction ops for the new owner. fp is the
// fingerprint of the directory's own key, validated by the remote owner
// against the ring.
func (s *Server) collectDentries(p *env.Proc, owner env.NodeID, dir core.DirID,
	fp core.Fingerprint) ([]wire.TxnOp, error) {

	var entries []core.DirEntry
	if owner == s.cfg.ID {
		s.kv.ScanNames(core.EntryPrefix(dir), func(name string, v []byte) bool {
			if de, err := core.DecodeDirEntry(name, v); err == nil {
				entries = append(entries, de)
			}
			return true
		})
	} else {
		v, err := ctlCall(s, p, owner, func(ctl uint64) wire.ScanDirReq {
			return wire.ScanDirReq{Ctl: ctl, From: s.cfg.ID, Dir: dir, FP: fp}
		})
		if err != nil {
			return nil, err
		}
		resp := v.(*wire.ScanDirResp)
		if resp.Err != core.ErrnoOK {
			return nil, resp.Err.Err()
		}
		entries = resp.Entries
	}
	ops := make([]wire.TxnOp, 0, len(entries))
	for _, e := range entries {
		ops = append(ops, wire.TxnOp{
			Kind:  wire.TxnPutDentry,
			Dir:   core.DirRef{ID: dir},
			Entry: core.LogEntry{Name: e.Name, Type: e.Type, Perm: e.Perm},
		})
	}
	return ops, nil
}

func (s *Server) handleScanDir(p *env.Proc, _ *wire.Packet, req *wire.ScanDirReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	pkt, resp := wire.NewPacket[wire.ScanDirResp](req.From, s.cfg.ID)
	resp.Ctl = req.Ctl
	// Fingerprint 0 is reserved — core.FingerprintOf never produces it for a
	// real group — so the zero value soundly marks control-plane scans that
	// opt out of migration admission.
	if req.FP != 0 {
		if err := s.admitFP(p, req.FP); err != nil {
			resp.Err = core.ErrnoOf(err)
			s.send(p, pkt)
			return
		}
		defer s.fpExit(req.FP)
	}
	n := 0
	s.kv.ScanNames(core.EntryPrefix(req.Dir), func(name string, v []byte) bool {
		if de, err := core.DecodeDirEntry(name, v); err == nil {
			resp.Entries = append(resp.Entries, de)
		}
		n++
		return true
	})
	p.Compute(env.Duration(n) * c.KVScanEntry)
	s.send(p, pkt)
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

// flushRemoteEntry runs flushEntry at key's owner.
func (s *Server) flushRemoteEntry(p *env.Proc, owner env.NodeID, key core.Key) error {
	if owner == s.cfg.ID {
		return s.flushEntry(p, key)
	}
	v, err := ctlCall(s, p, owner, func(ctl uint64) wire.FlushEntryReq {
		return wire.FlushEntryReq{Ctl: ctl, From: s.cfg.ID, Key: key}
	})
	if err != nil {
		return err
	}
	if v.(*wire.FlushEntryResp).Incomplete {
		return core.ErrRetry
	}
	return nil
}

func (s *Server) handleFlushEntry(p *env.Proc, _ *wire.Packet, req *wire.FlushEntryReq) {
	p.Compute(s.cfg.Costs.Parse)
	err := s.flushEntry(p, req.Key)
	replyNew(s, p, req.From, wire.FlushEntryResp{Ctl: req.Ctl, Incomplete: err != nil})
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

// remoteAggregate makes fp's owner aggregate the group now. An incomplete
// aggregation (unreachable peer) surfaces as ErrRetry: the caller's
// transaction must not serialize against state that may be missing
// acknowledged updates.
func (s *Server) remoteAggregate(p *env.Proc, owner env.NodeID, fp core.Fingerprint) error {
	if owner == s.cfg.ID {
		if !s.aggregateFP(p, fp, nil) { // the arrived-time rule gives freshness
			return core.ErrRetry
		}
		return nil
	}
	v, err := ctlCall(s, p, owner, func(ctl uint64) wire.AggNowReq {
		return wire.AggNowReq{Ctl: ctl, From: s.cfg.ID, FP: fp}
	})
	if err != nil {
		return err
	}
	if v.(*wire.AggNowResp).Incomplete {
		return core.ErrRetry
	}
	return nil
}

func (s *Server) handleAggNow(p *env.Proc, _ *wire.Packet, req *wire.AggNowReq) {
	complete := s.aggregateFP(p, req.FP, nil)
	replyNew(s, p, req.From, wire.AggNowResp{Ctl: req.Ctl, Incomplete: !complete})
}

// broadcastInval plants directories in this server's invalidation list and
// sends them to every peer's (a directory rename, §5.2). It sends
// and returns: each peer answers with an InvalAck, which nothing consumes.
func (s *Server) broadcastInval(p *env.Proc, dirs []core.DirID) {
	for _, d := range dirs {
		s.addInval(d)
	}
	for _, peer := range s.cfg.Peers {
		if peer != s.cfg.ID {
			replyNew(s, p, peer, wire.InvalBroadcast{From: s.cfg.ID, Dirs: dirs})
		}
	}
}

// handleTxnVote collects a prepare vote at the coordinator.
func (s *Server) handleTxnVote(_ *env.Proc, _ *wire.Packet, v *wire.TxnVote) {
	t := s.txnVotes[v.Txn]
	if t == nil || !t.votes.Expects(v.From) {
		return
	}
	if v.Err != core.ErrnoOK && t.err == nil {
		t.err = v.Err.Err()
	}
	t.votes.Answer(v.From, nil)
}
