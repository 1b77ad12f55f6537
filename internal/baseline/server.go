package baseline

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/kv"
	"switchfs/internal/rpc"
)

// Baseline message types (the baselines share the env network but speak
// their own compact protocol).

// breq is a client request.
type breq struct {
	RPC uint64
	// Acked is the sender's acknowledgement: it finished every call below
	// it (rpc.Registry.Acked).
	Acked    uint64
	From     env.NodeID
	Op       core.Op
	Dir      core.DirID // parent (double-inode ops, file ops) or target dir
	DirPath  string     // Ceph subtree routing
	Name     string
	NewDir   core.DirID // mkdir: preallocated directory id
	Dir2     core.DirID // rename destination parent
	Dir2Path string
	Name2    string
	Perm     core.Perm
}

// bresp answers a client request.
type bresp struct {
	RPC  uint64
	Err  core.Errno
	Dir  core.DirID
	Size int64
	Perm core.Perm
	// Type is the target's file type for stat/open responses (the stores
	// record it as the value's marker byte).
	Type core.FileType
	// Entries carries the listing for readdir responses.
	Entries []core.DirEntry
}

// bsub is a server-to-server sub-operation of a synchronous multi-server
// update (the cross-server coordination SwitchFS hides, §3.2 Challenge #1).
type bsub struct {
	RPC   uint64
	Acked uint64
	From  env.NodeID
	Kind  subKind
	Dir   core.DirID
	Name  string
	Put   bool // parent update: insert (true) or remove (false)
	Type  core.FileType
	// Raw is the record body for subPutFile (rename/link move records
	// verbatim so markers and directory pointers survive).
	Raw []byte
}

type subKind uint8

const (
	// subParentApply applies a dentry insert/remove + attribute update on
	// the directory's owner under its exclusive lock.
	subParentApply subKind = iota + 1
	// subCreateDir installs a new directory inode.
	subCreateDir
	// subDeleteDirIfEmpty validates emptiness and removes a directory inode.
	subDeleteDirIfEmpty
	// subPutFile / subDelFile / subGetFile manipulate a remote file inode
	// (CFS rename legs).
	subPutFile
	subDelFile
	subGetFile
)

// bsubResp answers a sub-operation.
type bsubResp struct {
	RPC uint64
	Err core.Errno
	Raw []byte
}

// bserver is one baseline metadata server.
type bserver struct {
	c  *Cluster
	id env.NodeID
	kv *kv.Store

	locks map[core.DirID]*env.RWMutex
	// ids and rpc are the server's side of its sub-operations, as they are
	// a client's of its requests (bclient).
	ids core.Incarnation
	rpc rpc.Registry
	// served dedups client and peer retransmissions, like the real systems'
	// RPC stacks (and SwitchFS's §5.4.1 cache): every request passes
	// served.Admit in handle, so a duplicate of a request still executing
	// is dropped (the original's response answers it), and a duplicate of
	// an answered request replays the cached response. Without this, a
	// contended directory turns retransmission rounds into extra serialized
	// work: the queue (and the parked-process population) grows without
	// bound and the run crawls. served holds each sender's requests until
	// the sender acknowledges them.
	served rpc.Served[any]
	// ops counts executed (non-duplicate) client requests, for the
	// per-server tallies figures carry.
	ops uint64
}

func (s *bserver) lockOf(id core.DirID) *env.RWMutex {
	l := s.locks[id]
	if l == nil {
		l = &env.RWMutex{}
		s.locks[id] = l
	}
	return l
}

// call stamps m with its id, sender and acknowledgement, performs it as a
// retried server-to-server RPC and returns the reply's errno
// (ErrnoUnavailable when no reply came).
func (s *bserver) call(p *env.Proc, to env.NodeID, m *bsub) core.Errno {
	m.RPC = s.ids.Next()
	m.Acked, m.From = s.rpc.Acked(m.RPC), s.id
	if v, ok := s.rpc.Request(p, m.RPC, 64, s.c.Opts.RetryTimeout, nil, func() { p.Send(to, m) }); ok {
		return v.(*bsubResp).Err
	}
	return core.ErrnoUnavailable
}

// handle dispatches baseline messages, and it is the one place a server
// answers a request: a client request or a peer's sub-operation passes the
// replay-or-begin step (rpc.Served.Admit) before any CPU is charged — a
// duplicate would otherwise queue on the cores and the directory lock
// behind the original — and its handler returns the errno handle sends.
func (s *bserver) handle(p *env.Proc, from env.NodeID, msg any) {
	switch m := msg.(type) {
	case *breq:
		if !s.served.Admit(m.From, m.RPC, m.Acked, func(v any) { p.Send(m.From, v) }) {
			return
		}
		s.ops++
		resp := &bresp{RPC: m.RPC}
		resp.Err = s.handleReq(p, m, resp)
		p.Send(m.From, resp)
		s.served.Put(m.From, m.RPC, resp)
	case *bsub:
		if !s.served.Admit(m.From, m.RPC, m.Acked, func(v any) { p.Send(m.From, v) }) {
			return
		}
		resp := &bsubResp{RPC: m.RPC}
		resp.Err = s.handleSub(p, m, resp)
		p.Send(m.From, resp)
		s.served.Put(m.From, m.RPC, resp)
	case *bsubResp:
		s.rpc.Answer(m.RPC, from, m)
	}
}

// stack charges the per-request software cost; the modeled CephFS pays its
// heavy stack here (§7.2.1 observation 4).
func (s *bserver) stack(p *env.Proc) {
	c := &s.c.Opts.Costs
	p.Compute(c.Parse)
	if s.c.Opts.Mode == Ceph {
		p.Compute(c.HeavyStack)
	}
}

// handleReq executes a client request, filling resp's payload, and returns
// its errno.
func (s *bserver) handleReq(p *env.Proc, m *breq, resp *bresp) core.Errno {
	s.stack(p)
	c := &s.c.Opts.Costs
	switch m.Op {
	case core.OpLookup:
		l := s.lockOf(m.Dir)
		l.RLock(p)
		p.Compute(c.KVGet)
		raw, ok := s.kv.GetView(fileKey(m.Dir, m.Name))
		l.RUnlock()
		if !ok || len(raw) < 1 {
			return core.ErrnoNotExist
		}
		if raw[0] != 2 {
			// Path component exists but is not a directory: ENOTDIR, as in
			// the real systems (and SwitchFS's lookup).
			return core.ErrnoNotDir
		}
		resp.Dir = core.DirIDFromBytes(raw[2:]) // skip marker + 'D'

	case core.OpStat, core.OpOpen, core.OpClose:
		l := s.lockOf(m.Dir)
		l.RLock(p)
		p.Compute(c.KVGet)
		raw, ok := s.kv.GetView(fileKey(m.Dir, m.Name))
		l.RUnlock()
		if !ok {
			return core.ErrnoNotExist
		}
		resp.Type = core.TypeRegular
		if len(raw) > 0 {
			resp.Type = core.FileType(raw[0])
		}

	case core.OpChmod:
		l := s.lockOf(m.Dir)
		l.Lock(p)
		p.Compute(c.KVGet + c.WALAppend + c.KVPut)
		raw, ok := s.kv.GetView(fileKey(m.Dir, m.Name))
		if ok {
			s.kv.Put(fileKey(m.Dir, m.Name), raw)
		}
		l.Unlock()
		if !ok {
			return core.ErrnoNotExist
		}

	case core.OpStatDir, core.OpReadDir:
		l := s.lockOf(m.Dir)
		l.RLock(p)
		p.Compute(c.KVGet)
		raw, ok := s.kv.GetView(dirKey(m.Dir))
		if ok && m.Op == core.OpReadDir {
			prefix := entKey(m.Dir, "")
			s.kv.Scan(prefix, func(k, v []byte) bool {
				e := core.DirEntry{Name: string(k[len(prefix):]), Type: core.TypeRegular}
				if len(v) > 0 {
					e.Type = core.FileType(v[0])
				}
				resp.Entries = append(resp.Entries, e)
				return true
			})
			p.Compute(env.Duration(len(resp.Entries)) * c.KVScanEntry)
		}
		l.RUnlock()
		if !ok {
			return core.ErrnoNotExist
		}
		rec := decodeDir(raw)
		resp.Size = rec.Size
		resp.Perm = rec.Perm

	case core.OpCreate, core.OpDelete:
		return s.createDelete(p, m)
	case core.OpMkdir:
		return s.mkdir(p, m, resp)
	case core.OpRmdir:
		return s.rmdir(p, m)
	case core.OpRename:
		return s.rename(p, m)
	case core.OpLink:
		return s.link(p, m)
	default:
		return core.ErrnoInvalid
	}
	return core.ErrnoOK
}

// createDelete executes the synchronous double-inode file operations. Under
// grouping the file inode, the dentry, and the parent attributes are all
// local (one server, one directory lock). Under separation the file inode is
// local but the parent update is a cross-server transaction — the extra
// round trip and serialization SwitchFS removes (§3.2).
func (s *bserver) createDelete(p *env.Proc, m *breq) core.Errno {
	c := &s.c.Opts.Costs
	put := m.Op == core.OpCreate
	parentSrv := s.c.ownerForDirID(m.Dir, m.DirPath)

	p.Compute(c.KVGet)
	raw, exists := s.kv.GetView(fileKey(m.Dir, m.Name))
	switch {
	case put && exists:
		return core.ErrnoExist
	case !put && !exists:
		return core.ErrnoNotExist
	case !put && len(raw) > 0 && raw[0] == 2:
		// Unlinking a directory is rmdir's job: EISDIR (deleting the pointer
		// record here would strand the directory inode and its entries).
		return core.ErrnoIsDir
	}

	if parentSrv == s {
		// Local transaction under the parent's exclusive lock.
		l := s.lockOf(m.Dir)
		l.Lock(p)
		p.Compute(c.WALAppend + c.TxnOverhead)
		s.applyParent(p, m.Dir, m.Name, put, core.TypeRegular)
		s.putFile(p, m, put)
		l.Unlock()
		return core.ErrnoOK
	}

	// Cross-server: prepare locally, update the parent remotely, commit.
	p.Compute(c.WALAppend + c.TxnOverhead)
	if err := s.call(p, parentSrv.id, &bsub{Kind: subParentApply,
		Dir: m.Dir, Name: m.Name, Put: put, Type: core.TypeRegular}); err != core.ErrnoOK {
		return err
	}
	p.Compute(c.TxnOverhead)
	s.putFile(p, m, put)
	return core.ErrnoOK
}

// putFile installs (put) or removes the request's file record.
func (s *bserver) putFile(p *env.Proc, m *breq, put bool) {
	c := &s.c.Opts.Costs
	if put {
		p.Compute(c.KVPut)
		s.kv.Put(fileKey(m.Dir, m.Name), []byte{1})
	} else {
		p.Compute(c.KVDel)
		s.kv.Delete(fileKey(m.Dir, m.Name))
	}
}

// mkdir updates the parent (locally — the request is routed to the parent's
// owner) and installs the new directory inode on its own server, which is a
// cross-server step in every baseline (Tab. 1).
func (s *bserver) mkdir(p *env.Proc, m *breq, resp *bresp) core.Errno {
	c := &s.c.Opts.Costs
	p.Compute(c.KVGet)
	if s.kv.Has(fileKey(m.Dir, m.Name)) {
		return core.ErrnoExist
	}
	dirSrv := s.c.ownerForDirID(m.NewDir, m.DirPath+"/"+m.Name)
	l := s.lockOf(m.Dir)
	l.Lock(p)
	defer l.Unlock()
	p.Compute(c.WALAppend + c.TxnOverhead)
	s.applyParent(p, m.Dir, m.Name, true, core.TypeDir)
	p.Compute(c.KVPut)
	s.kv.Put(fileKey(m.Dir, m.Name), append([]byte{2}, dirKey(m.NewDir)...))
	if dirSrv == s {
		p.Compute(c.KVPut)
		s.kv.Put(dirKey(m.NewDir), encodeDir(&dirRecord{Perm: core.DefaultDirPerm}))
	} else if err := s.call(p, dirSrv.id, &bsub{Kind: subCreateDir, Dir: m.NewDir}); err != core.ErrnoOK {
		return err
	}
	resp.Dir = m.NewDir
	return core.ErrnoOK
}

// rmdir validates emptiness at the directory's server and removes it, then
// updates the parent.
func (s *bserver) rmdir(p *env.Proc, m *breq) core.Errno {
	c := &s.c.Opts.Costs
	if s.c.Opts.Mode == IndexFS {
		// The paper notes IndexFS's rmdir is incomplete; results omit it.
		return core.ErrnoInvalid
	}
	p.Compute(c.KVGet)
	raw, ok := s.kv.GetView(fileKey(m.Dir, m.Name))
	if !ok || len(raw) < 1 {
		return core.ErrnoNotExist
	}
	if raw[0] != 2 {
		return core.ErrnoNotDir
	}
	target := core.DirIDFromBytes(raw[2:])
	dirSrv := s.c.ownerForDirID(target, m.DirPath+"/"+m.Name)
	l := s.lockOf(m.Dir)
	l.Lock(p)
	defer l.Unlock()
	if dirSrv == s {
		if s.deleteDirIfEmpty(p, target) != core.ErrnoOK {
			return core.ErrnoNotEmpty
		}
	} else if err := s.call(p, dirSrv.id, &bsub{Kind: subDeleteDirIfEmpty, Dir: target}); err != core.ErrnoOK {
		return err
	}
	p.Compute(c.WALAppend + c.TxnOverhead + c.KVDel)
	s.kv.Delete(fileKey(m.Dir, m.Name))
	s.applyParent(p, m.Dir, m.Name, false, core.TypeDir)
	return core.ErrnoOK
}

// joinFull assembles a full path from a parent directory path and a leaf
// name (dirPath is "/" for root children).
func joinFull(dirPath, name string) string {
	if dirPath == "/" || dirPath == "" {
		return "/" + name
	}
	return dirPath + "/" + name
}

// dstFree checks at its server that a two-path op's destination record is
// absent: ErrnoExist if it is there.
func (s *bserver) dstFree(p *env.Proc, m *breq) core.Errno {
	dstSrv := s.c.fileServerForPath(m.Dir2, m.Name2, m.Dir2Path)
	if dstSrv == s {
		p.Compute(s.c.Opts.Costs.KVGet)
		if s.kv.Has(fileKey(m.Dir2, m.Name2)) {
			return core.ErrnoExist
		}
		return core.ErrnoOK
	}
	switch err := s.call(p, dstSrv.id, &bsub{Kind: subGetFile, Dir: m.Dir2, Name: m.Name2}); err {
	case core.ErrnoOK:
		return core.ErrnoExist
	case core.ErrnoNotExist:
		return core.ErrnoOK
	default:
		return err
	}
}

// putDst installs a record (preserving its marker byte and any directory
// pointer) at the destination's server.
func (s *bserver) putDst(p *env.Proc, m *breq, raw []byte) {
	c := &s.c.Opts.Costs
	dstSrv := s.c.fileServerForPath(m.Dir2, m.Name2, m.Dir2Path)
	if dstSrv == s {
		p.Compute(c.WALAppend + c.KVPut)
		s.kv.Put(fileKey(m.Dir2, m.Name2), append([]byte(nil), raw...))
		return
	}
	s.call(p, dstSrv.id, &bsub{Kind: subPutFile,
		Dir: m.Dir2, Name: m.Name2, Raw: append([]byte(nil), raw...)})
}

// applyParentAt routes a dentry insert/remove to the named directory's owner.
func (s *bserver) applyParentAt(p *env.Proc, dir core.DirID, dirPath, name string,
	put bool, t core.FileType) {

	c := &s.c.Opts.Costs
	owner := s.c.ownerForDirID(dir, dirPath)
	if owner == s {
		l := s.lockOf(dir)
		l.Lock(p)
		p.Compute(c.WALAppend + c.TxnOverhead)
		s.applyParent(p, dir, name, put, t)
		l.Unlock()
		return
	}
	s.call(p, owner.id, &bsub{Kind: subParentApply,
		Dir: dir, Name: name, Put: put, Type: t})
}

// rename moves a file or directory: synchronous multi-inode update with the
// POSIX-shaped checks SwitchFS applies — missing source is ENOENT, an
// existing destination is EEXIST, a directory renamed under its own subtree
// is ELOOP, and renaming an object to itself is a no-op. The moved record
// keeps its marker byte, so a renamed directory's pointer (and therefore its
// id and children) survives the move.
func (s *bserver) rename(p *env.Proc, m *breq) core.Errno {
	c := &s.c.Opts.Costs
	p.Compute(c.KVGet)
	raw, ok := s.kv.GetView(fileKey(m.Dir, m.Name))
	if !ok || len(raw) < 1 {
		return core.ErrnoNotExist
	}
	if m.Dir == m.Dir2 && m.Name == m.Name2 {
		return core.ErrnoOK // rename to itself: no-op success
	}
	typ := core.FileType(raw[0])
	srcFull := joinFull(m.DirPath, m.Name)
	dstFull := joinFull(m.Dir2Path, m.Name2)
	if typ == core.TypeDir &&
		(dstFull == srcFull || len(dstFull) > len(srcFull)+1 &&
			dstFull[:len(srcFull)] == srcFull && dstFull[len(srcFull)] == '/') {
		return core.ErrnoLoop
	}
	if err := s.dstFree(p, m); err != core.ErrnoOK {
		return err
	}

	// Remove source (local: the request is routed to the source's server).
	moved := append([]byte(nil), raw...)
	l := s.lockOf(m.Dir)
	l.Lock(p)
	p.Compute(c.WALAppend + 2*c.TxnOverhead + c.KVDel)
	s.kv.Delete(fileKey(m.Dir, m.Name))
	l.Unlock()
	s.applyParentAt(p, m.Dir, m.DirPath, m.Name, false, typ)
	// Install destination with the preserved record.
	s.putDst(p, m, moved)
	s.applyParentAt(p, m.Dir2, m.Dir2Path, m.Name2, true, typ)
	return core.ErrnoOK
}

// link creates a hard link: the baselines store no shared attribute object,
// so observably the link is a second reference record with the same type.
func (s *bserver) link(p *env.Proc, m *breq) core.Errno {
	c := &s.c.Opts.Costs
	p.Compute(c.KVGet)
	raw, ok := s.kv.GetView(fileKey(m.Dir, m.Name))
	if !ok || len(raw) < 1 {
		return core.ErrnoNotExist
	}
	if raw[0] == 2 {
		return core.ErrnoIsDir
	}
	if err := s.dstFree(p, m); err != core.ErrnoOK {
		return err
	}
	s.putDst(p, m, raw)
	s.applyParentAt(p, m.Dir2, m.Dir2Path, m.Name2, true, core.FileType(raw[0]))
	return core.ErrnoOK
}

// applyParent performs the dentry + attribute update of a directory on this
// server. Callers hold the directory's exclusive lock.
func (s *bserver) applyParent(p *env.Proc, dir core.DirID, name string, put bool, t core.FileType) {
	c := &s.c.Opts.Costs
	// The serialized hot-directory transaction: lock-manager bookkeeping,
	// transaction log, and index maintenance on top of the attribute
	// read-modify-write (calibrated to Fig. 2b).
	p.Compute(c.DirTxn + c.KVGet + c.KVPut)
	raw, _ := s.kv.GetView(dirKey(dir))
	r := decodeDir(raw)
	if put {
		r.Size++
	} else if r.Size > 0 {
		r.Size--
	}
	r.Mtime = p.Now()
	s.kv.Put(dirKey(dir), encodeDir(r))
	p.Compute(c.KVPut)
	if put {
		s.kv.Put(entKey(dir, name), []byte{byte(t)})
	} else {
		s.kv.Delete(entKey(dir, name))
	}
}

func (s *bserver) deleteDirIfEmpty(p *env.Proc, dir core.DirID) core.Errno {
	c := &s.c.Opts.Costs
	p.Compute(c.KVGet)
	raw, ok := s.kv.GetView(dirKey(dir))
	if !ok {
		return core.ErrnoNotExist
	}
	if decodeDir(raw).Size != 0 {
		return core.ErrnoNotEmpty
	}
	p.Compute(c.WALAppend + c.KVDel)
	s.kv.Delete(dirKey(dir))
	return core.ErrnoOK
}

// handleSub serves a server-to-server sub-operation, filling resp's payload,
// and returns its errno.
func (s *bserver) handleSub(p *env.Proc, m *bsub, resp *bsubResp) core.Errno {
	s.stack(p)
	c := &s.c.Opts.Costs
	switch m.Kind {
	case subParentApply:
		l := s.lockOf(m.Dir)
		l.Lock(p)
		p.Compute(c.TxnOverhead + c.WALAppend)
		s.applyParent(p, m.Dir, m.Name, m.Put, m.Type)
		l.Unlock()
	case subCreateDir:
		p.Compute(c.WALAppend + c.KVPut)
		s.kv.Put(dirKey(m.Dir), encodeDir(&dirRecord{Perm: core.DefaultDirPerm}))
	case subDeleteDirIfEmpty:
		return s.deleteDirIfEmpty(p, m.Dir)
	case subPutFile:
		p.Compute(c.WALAppend + c.KVPut)
		raw := m.Raw
		if len(raw) == 0 {
			raw = []byte{1}
		}
		s.kv.Put(fileKey(m.Dir, m.Name), raw)
	case subDelFile:
		p.Compute(c.WALAppend + c.KVDel)
		s.kv.Delete(fileKey(m.Dir, m.Name))
	case subGetFile:
		p.Compute(c.KVGet)
		raw, ok := s.kv.GetView(fileKey(m.Dir, m.Name))
		if !ok {
			return core.ErrnoNotExist
		}
		// The view crosses the wire inside a message: copy it out.
		resp.Raw = append([]byte(nil), raw...)
	}
	return core.ErrnoOK
}
