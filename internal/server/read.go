package server

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// handleLookup resolves one path component to directory metadata — the
// client cache-miss path (§5.2.1 step 1). It reads under the key's read lock
// and waits out an rmdir of the key in flight, so a lookup racing an rmdir
// observes its final state (§5.2.3 "Discussion"). The rmdir plants its
// invalidation before it takes the key's lock: a lookup that read the
// directory in between would hand the client the planted sequence number
// together with the directory, and a create under it would then pass
// checkAncestors. The wait runs in the event of the read, after the KVGet
// charge, and releases the read lock the rmdir's commit needs.
//
//detlint:ignore idempotent -- lookup is a pure read; the lock-table insert lockOf may perform is idempotent
func (s *Server) handleLookup(p *env.Proc, req *wire.LookupReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	key := core.Key{PID: req.Parent, Name: req.Name}
	fp := key.Fingerprint()
	pkt, resp := wire.NewPacket[wire.LookupResp](req.Client, s.cfg.ID)
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, fp)
	}
	if err == nil {
		l := s.lockOf(key)
		l.RLock(p)
		p.Compute(c.KVGet)
		for s.removals[key] != nil {
			l.RUnlock()
			s.waitRemoval(p, key)
			l.RLock(p)
		}
		var in core.Inode
		if err = s.readDirInode(key, &in); err == nil {
			resp.Dir = in.ID
			resp.Attr = in.Attr
		}
		l.RUnlock()
		s.fpExit(fp)
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.send(p, pkt)
}

// readInode reads key's inode record into *in: the key is encoded on the
// stack and the store's memory is decoded on the spot, so neither outlives
// the call. ErrNotExist when absent, ErrInvalid when undecodable.
func (s *Server) readInode(key core.Key, in *core.Inode) error {
	var kb core.KeyBuf
	raw, ok := s.kv.GetView(key.AppendTo(kb[:0]))
	if !ok {
		return core.ErrNotExist
	}
	if core.DecodeInodeInto(in, raw) != nil {
		return core.ErrInvalid
	}
	return nil
}

// readDirInode is readInode for a key that must name a directory.
func (s *Server) readDirInode(key core.Key, in *core.Inode) error {
	err := s.readInode(key, in)
	if err == nil && in.Type != core.TypeDir {
		err = core.ErrNotDir
	}
	return err
}

// handleFile serves the synchronous read-only single-inode file operations:
// stat, open, close. They read the file inode in place, exactly as in a
// traditional DFS (§5.2 "Single-inode operations"). Chmod, the one FileReq
// that mutates, is dispatched to handleChmod instead.
//
//detlint:ignore idempotent -- stat/open/close are pure reads; the lock-table insert lockOf may perform is idempotent
func (s *Server) handleFile(p *env.Proc, req *wire.FileReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	s.Stats.Ops++
	s.tallyDir(req.Parent.ID)
	key := core.Key{PID: req.Parent.ID, Name: req.Name}
	fp := key.Fingerprint()
	pkt, resp := wire.NewPacket[wire.FileResp](req.Client, s.cfg.ID)
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, fp)
	}
	if err == nil {
		s.tallyFP(fp)
		l := s.lockOf(key)
		l.RLock(p)
		p.Compute(c.KVGet)
		var in core.Inode
		if err = s.readInode(key, &in); err == nil {
			switch req.Op {
			case core.OpStat, core.OpOpen, core.OpClose:
				resp.Attr = in.Attr
				resp.DataLoc = in.DataLoc
			default:
				err = core.ErrInvalid
			}
		}
		l.RUnlock()
		s.fpExit(fp)
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.send(p, pkt)
}

// handleChmod updates a file inode's permissions in place. Chmod is the one
// FileReq that mutates durable state, so unlike its read-only siblings it
// runs behind the retransmission dedup cache: before this split, a duplicate
// chmod arriving after the original committed re-appended the WAL record and
// rewrote the inode — so a retransmitted stale chmod could clobber a newer
// chmod's permissions and ctime (caught by detlint idempotent, PR 2/4
// re-execution class; pinned by TestDuplicateChmodNotReexecuted).
func (s *Server) handleChmod(p *env.Proc, req *wire.FileReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	if s.replayIfDuplicate(p, &req.ReqCommon) {
		return
	}
	if !s.begin(&req.ReqCommon) {
		return // in flight; the original execution will reply
	}
	s.Stats.Ops++
	s.tallyDir(req.Parent.ID)
	key := core.Key{PID: req.Parent.ID, Name: req.Name}
	fp := key.Fingerprint()
	pkt, resp := wire.NewPacket[wire.FileResp](req.Client, s.cfg.ID)
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, fp)
	}
	if err == nil {
		s.tallyFP(fp)
		l := s.lockOf(key)
		l.Lock(p)
		p.Compute(c.KVGet)
		var in core.Inode
		if err = s.readInode(key, &in); err == nil {
			in.Perm = req.Perm
			in.Ctime = p.Now()
			p.Compute(c.WALAppend + c.KVPut)
			s.putInode(key, &in)
			resp.Attr = in.Attr
		}
		l.Unlock()
		s.fpExit(fp)
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.remember(req.Client, req.RPC, resp)
	s.send(p, pkt)
}

// handleDirRead serves statdir and readdir (§5.2.2). The packet travelled
// through the switch, which annotated the dirty-set query result; a
// scattered directory triggers (or joins) a metadata aggregation before the
// read returns.
//
//detlint:ignore idempotent -- statdir/readdir are reads; the aggregation a re-execution may re-trigger converges to the same state
func (s *Server) handleDirRead(p *env.Proc, pkt *wire.Packet, req *wire.DirReadReq) {
	c := &s.cfg.Costs
	p.Compute(c.Parse)
	s.Stats.Ops++
	s.tallyDir(req.Dir.ID)
	out, resp := wire.NewPacket[wire.DirReadResp](req.Client, s.cfg.ID)
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, req.Dir.FP)
	}
	if err == nil {
		s.tallyFP(req.Dir.FP)
		scattered := false
		switch s.cfg.Tracker {
		case TrackerOwner:
			scattered = s.ownerDirty[req.Dir.FP]
		default:
			scattered = pkt.DS != nil && pkt.DS.Ret
		}
		if scattered {
			// Aggregation blocks directory reads of the whole fingerprint
			// group until the deferred updates are applied. An incomplete
			// aggregation (a peer stayed down past the retry budget) may
			// miss that peer's acknowledged entries — the read must retry
			// rather than serve the partial state as the directory.
			if !s.aggregateFP(p, req.Dir.FP, nil) {
				err = core.ErrRetry
			}
		} else if !s.waitAggIdle(p, req.Dir.FP) {
			// A "normal" query can also mean an aggregation is mid-flight:
			// its dirty-set remove already fired but the collected entries
			// are not applied yet. That window is sub-RTT in the fault-free
			// case, but a crashed peer stretches it to that peer's recovery
			// time — serving immediately would return the pre-aggregation
			// state long after newer updates were acknowledged. Wait for the
			// in-flight aggregation (if any) to apply; if it gave up on an
			// unreachable peer, its partial state cannot be served either.
			err = core.ErrRetry
		}
		if err == nil {
			l := s.lockOf(req.Dir.Key)
			l.RLock(p)
			p.Compute(c.KVGet)
			var in core.Inode
			if err = s.readDirInode(req.Dir.Key, &in); err == nil {
				resp.Attr = in.Attr
				if req.Op == core.OpReadDir {
					prefix := core.EntryPrefix(in.ID)
					n := 0
					s.kv.Scan(prefix, func(k, v []byte) bool {
						name := string(k[len(prefix):])
						if de, e := core.DecodeDirEntry(name, v); e == nil {
							resp.Entries = append(resp.Entries, de)
						}
						n++
						return true
					})
					p.Compute(env.Duration(n) * c.KVScanEntry)
				}
			}
			l.RUnlock()
		}
		s.fpExit(req.Dir.FP)
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.send(p, out)
}
