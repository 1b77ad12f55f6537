package server

import (
	"fmt"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wal"
)

// mustAppend wraps WAL appends: a log that could not persist would leave the
// server unable to honor its durability contract — crash loudly rather than
// acknowledge unlogged operations.
func mustAppend(l *wal.Mem, kind uint8, payload []byte) wal.LSN {
	lsn, err := l.Append(kind, payload)
	if err != nil {
		panic(fmt.Sprintf("server: WAL append failed: %v", err))
	}
	return lsn
}

// logRecord appends s.walBuf to the WAL as a kind record and counts it.
func (s *Server) logRecord(kind uint8) wal.LSN {
	s.Stats.WALRecords++
	s.Stats.WALBytes += uint64(len(s.walBuf))
	return mustAppend(s.wal, kind, s.walBuf)
}

// logTransient is logRecord for a 2PC record, a prepare or a commit decision:
// once its transaction is resolved the record is marked applied, and replay
// reads no applied one's payload, so the log may give the bytes back
// (wal.Mem.AppendTransient).
func (s *Server) logTransient(kind uint8) wal.LSN {
	s.Stats.WALRecords++
	s.Stats.WALBytes += uint64(len(s.walBuf))
	lsn, err := s.wal.AppendTransient(kind, s.walBuf)
	if err != nil {
		panic(fmt.Sprintf("server: WAL append failed: %v", err))
	}
	return lsn
}

// noRecord is the record a message carries when it needs none: the first
// record's LSN is 1.
const noRecord wal.LSN = 0

// mustMark wraps applied-marking, same contract as mustAppend.
func mustMark(l *wal.Mem, lsn wal.LSN) {
	if err := l.MarkApplied(lsn); err != nil {
		panic(fmt.Sprintf("server: WAL mark failed: %v", err))
	}
}

// maxStripeWidth caps how many data slots one file stripes over: wide
// enough to spread a multi-chunk file, narrow enough that small files keep
// locality (§7.6 files are mostly under 256 KB).
const maxStripeWidth = 4

// assignDataLoc picks a file's content placement at create time: a ring
// window of data slots starting at a fingerprint-derived base. The client
// stripes chunk s to DataLoc[s mod len] (returned at Open); deployments
// without data nodes get none (metadata-only runs).
func (s *Server) assignDataLoc(fp core.Fingerprint) []uint32 {
	n := s.cfg.DataNodes
	if n <= 0 {
		return nil
	}
	w := n
	if w > maxStripeWidth {
		w = maxStripeWidth
	}
	base := uint32(uint64(fp) % uint64(n))
	loc := make([]uint32, w)
	for j := range loc {
		loc[j] = (base + uint32(j)) % uint32(n)
	}
	return loc
}

// fileAttrKey derives the storage key of a hard-linked file's shared
// attribute object (§5.5): a reserved parent id namespace keyed by FileID.
func fileAttrKey(id core.FileID) core.Key {
	return core.Key{
		PID:  core.DirID{^uint64(0), ^uint64(0), 0, uint64(id)},
		Name: "#attr",
	}
}

// applyNlink atomically adjusts a local attribute object's link count,
// deleting the object when it reaches zero. Link-count deltas commute, so no
// cross-server locking is needed (the same argument as §5.3's type (a)
// actions).
func (s *Server) applyNlink(p *env.Proc, key core.Key, delta int32) error {
	l := s.lockOf(key)
	l.Lock(p)
	defer s.unlockKey(l)
	return s.applyNlinkLocked(p, key, delta)
}

// applyNlinkLocked is applyNlink for a caller that already holds key's lock:
// a committed transaction's decision, whose prepare locked every key it
// touches. Taking the lock again would park the decision on itself.
func (s *Server) applyNlinkLocked(p *env.Proc, key core.Key, delta int32) error {
	c := &s.cfg.Costs
	p.Compute(c.KVGet)
	var in core.Inode
	if err := s.readInode(key, &in); err != nil {
		return err
	}
	n := int64(in.Nlink) + int64(delta)
	p.Compute(c.WALAppend + c.KVPut)
	if n <= 0 {
		s.putInode(key, nil)
		return nil
	}
	in.Nlink = uint32(n)
	s.putInode(key, &in)
	return nil
}

// putInode logs (recInode) and stores key's inode; a nil inode deletes.
func (s *Server) putInode(key core.Key, in *core.Inode) {
	s.walBuf = encodeInodeRec(s.walBuf[:0], key, in)
	s.logRecord(recInode)
	s.storeInode(key, in)
}

// storeInode writes key's inode to the store, or deletes it when in is nil.
// Key and value are encoded on the stack: the store copies what it keeps.
func (s *Server) storeInode(key core.Key, in *core.Inode) {
	var kb core.KeyBuf
	ek := key.AppendTo(kb[:0])
	if in == nil {
		s.kv.Delete(ek)
		return
	}
	var vb core.InodeBuf
	s.kv.Put(ek, core.AppendInode(vb[:0], in))
}

// putDentry writes (or, with put false, deletes) directory id's dentry e in
// the store, from a stack-encoded key.
func (s *Server) putDentry(id core.DirID, e core.DirEntry, put bool) {
	var kb core.KeyBuf
	dk := core.AppendEntryKey(kb[:0], id, e.Name)
	if put {
		s.kv.Put(dk, core.EncodeDirEntry(e))
	} else {
		s.kv.Delete(dk)
	}
}

// applyDentry applies one change-log entry to directory id's entry list.
func (s *Server) applyDentry(id core.DirID, e core.LogEntry) {
	switch e.Op {
	case core.OpCreate, core.OpMkdir:
		s.putDentry(id, core.DirEntry{Name: e.Name, Type: e.Type, Perm: e.Perm}, true)
	case core.OpDelete, core.OpRmdir:
		s.putDentry(id, core.DirEntry{Name: e.Name}, false)
	}
}
