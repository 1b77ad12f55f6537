package server

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// handleLookup resolves one path component to directory metadata — the
// client cache-miss path (§5.2.1 step 1). It reads under the key's read lock
// and waits out a detach of the key in flight (an rmdir, or a directory
// rename until its prepare holds the key's lock), so a lookup racing either
// observes its final state (§5.2.3 "Discussion"). A detach plants its
// invalidation before the key's lock is taken: a lookup that read the
// directory in between would hand the client the planted sequence number
// together with the directory, and a create under it would then pass
// checkAncestors. The wait runs in the event of the read, after the KVGet
// charge, and releases the read lock the rmdir's commit needs.
func (s *Server) handleLookup(p *env.Proc, _ *wire.Packet, req *wire.LookupReq) {
	c := &s.cfg.Costs
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
			l.RUnlock() // the pin stays: the re-lock finds the same lock
			s.waitDetach(p, key)
			l.RLock(p)
		}
		var in core.Inode
		if err = s.readDirInode(key, &in); err == nil {
			resp.Dir = in.ID
			resp.Attr = in.Attr
		}
		s.runlockKey(l)
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

// handleFile serves the synchronous single-inode file operations: stat,
// open and close read the file inode in place, exactly as in a traditional
// DFS (§5.2 "Single-inode operations"), and chmod updates its permissions in
// place. Chmod is the one FileReq that mutates durable state, so it takes the
// inode's lock exclusive, its response is remembered, and its route
// deduplicates it: a retransmitted stale chmod replays its response instead
// of re-appending the WAL record and clobbering a newer chmod's permissions
// and ctime (TestDuplicateChmodNotReexecuted).
func (s *Server) handleFile(p *env.Proc, _ *wire.Packet, req *wire.FileReq) {
	c := &s.cfg.Costs
	chmod := req.Op == core.OpChmod
	s.Stats.Ops++
	key := core.Key{PID: req.Parent.ID, Name: req.Name}
	fp := key.Fingerprint()
	pkt, resp := wire.NewPacket[wire.FileResp](req.Client, s.cfg.ID)
	err := s.checkAncestors(&req.ReqCommon)
	if err == nil {
		err = s.admitFP(p, fp)
	}
	if err == nil {
		l := s.lockOf(key)
		if chmod {
			l.Lock(p)
		} else {
			l.RLock(p)
		}
		p.Compute(c.KVGet)
		var in core.Inode
		if err = s.readInode(key, &in); err == nil {
			switch req.Op {
			case core.OpStat, core.OpOpen, core.OpClose:
				resp.Attr = in.Attr
				resp.DataLoc = in.DataLoc
			case core.OpChmod:
				in.Perm = req.Perm
				in.Ctime = p.Now()
				p.Compute(c.WALAppend + c.KVPut)
				s.putInode(key, &in)
				resp.Attr = in.Attr
			default:
				err = core.ErrInvalid
			}
		}
		if chmod {
			s.unlockKey(l)
		} else {
			s.runlockKey(l)
		}
		s.fpExit(fp)
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	if chmod {
		s.remember(req.Client, req.RPC, resp)
	}
	s.send(p, pkt)
}

// handleDirRead serves statdir and readdir (§5.2.2). The packet travelled
// through the switch, which annotated the dirty-set query result; a
// scattered directory triggers (or joins) a metadata aggregation before the
// read returns. It is not deduplicated: a re-execution re-reads, and the
// aggregation it may re-trigger converges to the same state.
func (s *Server) handleDirRead(p *env.Proc, pkt *wire.Packet, req *wire.DirReadReq) {
	c := &s.cfg.Costs
	s.Stats.Ops++
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
			g := s.groups[req.Dir.FP]
			scattered = g != nil && g.dirty
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
					resp.Entries = s.entryList(p, in.ID)
				}
			}
			s.runlockKey(l)
		}
		s.fpExit(req.Dir.FP)
	}
	resp.RespCommon = s.respCommon(&req.ReqCommon, err)
	s.send(p, out)
}

// entryList returns directory id's entry list — one array, sized by the
// count; the names share one string copied out of the store — and charges a
// scan of every entry.
func (s *Server) entryList(p *env.Proc, id core.DirID) []core.DirEntry {
	var kb core.KeyBuf
	prefix := core.AppendEntryKey(kb[:0], id, "")
	n := s.kv.CountPrefix(prefix)
	var out []core.DirEntry
	if n > 0 {
		out = make([]core.DirEntry, 0, n)
	}
	s.kv.ScanNames(prefix, func(name string, v []byte) bool {
		if de, err := core.DecodeDirEntry(name, v); err == nil {
			out = append(out, de)
		}
		return true
	})
	p.Compute(env.Duration(n) * s.cfg.Costs.KVScanEntry)
	return out
}
