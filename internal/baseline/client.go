package baseline

import (
	"strings"

	"switchfs/internal/core"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/rpc"
	"switchfs/internal/wire"
)

// bclient is one baseline LibFS instance: path resolution over a
// path→directory-id cache, synchronous request/response with retransmission.
type bclient struct {
	c  *Cluster
	id env.NodeID

	cache map[string]core.DirID
	// ids issues request ids, node<<40 | n for n = 1, 2, …; rpc registers
	// the calls in flight and gives each request its acknowledgement.
	ids core.Incarnation
	rpc rpc.Registry
}

var _ fsapi.FS = (*bclient)(nil)

func (cl *bclient) handle(p *env.Proc, from env.NodeID, msg any) {
	switch m := msg.(type) {
	case *bresp:
		cl.rpc.Answer(m.RPC, from, m)
	case *wire.Packet: // a data node's reply
		cl.rpc.Answer(m.Body.(*wire.DataResp).RPC, from, m.Body)
	}
}

// call stamps m with its id, sender and acknowledgement, performs it as a
// retried request and returns the reply with its errno as the error
// (ErrTimeout when no reply came).
func (cl *bclient) call(p *env.Proc, to env.NodeID, m *breq) (*bresp, error) {
	m.RPC = cl.ids.Next()
	m.Acked, m.From = cl.rpc.Acked(m.RPC), cl.id
	v, ok := cl.rpc.Request(p, m.RPC, 64, cl.c.Opts.RetryTimeout, nil, func() { p.Send(to, m) })
	if !ok {
		return nil, core.ErrTimeout
	}
	resp := v.(*bresp)
	return resp, resp.Err.Err()
}

// resolve walks a path's directories, returning the parent's id, the leaf
// name, and the parent's path (for subtree routing).
func (cl *bclient) resolve(p *env.Proc, path string) (core.DirID, string, string, error) {
	comps, err := core.SplitPath(path)
	if err != nil {
		return core.DirID{}, "", "", err
	}
	if len(comps) == 0 {
		return core.DirID{}, "", "", core.ErrInvalid
	}
	p.Compute(cl.c.Opts.Costs.ClientOp)
	cur := core.RootDirID
	walked := ""
	for _, comp := range comps[:len(comps)-1] {
		walked += "/" + comp
		p.Compute(cl.c.Opts.Costs.CacheLookup)
		id, hit := cl.cache[walked]
		if hit {
			cur = id
			continue
		}
		owner := cl.c.ownerForDirID(cur, parentPath(walked))
		resp, err := cl.call(p, owner.id, &breq{Op: core.OpLookup, Dir: cur,
			DirPath: parentPath(walked), Name: comp})
		if err != nil {
			return core.DirID{}, "", "", err
		}
		cl.cache[walked] = resp.Dir
		cur = resp.Dir
	}
	dirPath := "/" + strings.Join(comps[:len(comps)-1], "/")
	return cur, comps[len(comps)-1], dirPath, nil
}

// do routes one operation and returns its error.
func (cl *bclient) do(p *env.Proc, op core.Op, path string) (*bresp, error) {
	if (op == core.OpStatDir || op == core.OpReadDir) && path == "/" {
		// The root needs no resolution (it is pre-cached as "/").
		owner := cl.c.ownerForDirID(core.RootDirID, "/")
		return cl.call(p, owner.id, &breq{Op: op, Dir: core.RootDirID, DirPath: "/"})
	}
	dir, name, dirPath, err := cl.resolve(p, path)
	if err != nil {
		return nil, err
	}
	var owner *bserver
	switch op {
	case core.OpStatDir, core.OpReadDir:
		// Directory reads address the directory itself.
		id, ok := cl.cache[path]
		if !ok {
			o := cl.c.ownerForDirID(dir, dirPath)
			resp, err := cl.call(p, o.id, &breq{Op: core.OpLookup, Dir: dir,
				DirPath: dirPath, Name: name})
			if err != nil {
				return nil, err
			}
			id = resp.Dir
			cl.cache[path] = id
		}
		owner = cl.c.ownerForDirID(id, path)
		return cl.call(p, owner.id, &breq{Op: op, Dir: id, DirPath: path})
	case core.OpMkdir:
		newID := cl.c.nextID()
		owner = cl.c.ownerForDirID(dir, dirPath)
		resp, err := cl.call(p, owner.id, &breq{Op: op, Dir: dir, DirPath: dirPath,
			Name: name, NewDir: newID})
		if err == nil {
			cl.cache[path] = resp.Dir
		}
		return resp, err
	case core.OpRmdir:
		owner = cl.c.ownerForDirID(dir, dirPath)
	case core.OpCreate, core.OpDelete:
		owner = cl.c.fileServerForPath(dir, name, dirPath)
	default: // stat/open/close/chmod
		owner = cl.c.fileServerForPath(dir, name, dirPath)
	}
	return cl.call(p, owner.id, &breq{Op: op, Dir: dir, DirPath: dirPath, Name: name})
}

// --- fsapi.FS -----------------------------------------------------------------

func (cl *bclient) Create(p *env.Proc, path string) error {
	_, err := cl.do(p, core.OpCreate, path)
	return err
}

func (cl *bclient) Delete(p *env.Proc, path string) error {
	_, err := cl.do(p, core.OpDelete, path)
	return err
}

func (cl *bclient) Mkdir(p *env.Proc, path string) error {
	_, err := cl.do(p, core.OpMkdir, path)
	return err
}

func (cl *bclient) Rmdir(p *env.Proc, path string) error {
	_, err := cl.do(p, core.OpRmdir, path)
	if err == nil {
		cl.invalidatePrefix(path)
	}
	return err
}

// invalidatePrefix drops every cached resolution at or under path: after a
// rmdir or rename, a recreated or moved directory gets a different id, and a
// stale hit would route operations to the old one.
func (cl *bclient) invalidatePrefix(path string) {
	for k := range cl.cache {
		if k == path || (len(k) > len(path)+1 && k[:len(path)] == path && k[len(path)] == '/') {
			delete(cl.cache, k)
		}
	}
}

// statAttr builds the attribute block for a stat/open response from the
// type the server read off the store. The baseline stores record only
// existence and type, so the mode is the type's default (enough for
// harness assertions).
func statAttr(resp *bresp) core.Attr {
	a := core.Attr{Type: resp.Type, Perm: core.DefaultFilePerm, Nlink: 1}
	if a.Type == 0 {
		a.Type = core.TypeRegular
	}
	if a.Type == core.TypeDir {
		a.Perm = core.DefaultDirPerm
	}
	return a
}

func (cl *bclient) Stat(p *env.Proc, path string) (core.Attr, error) {
	resp, err := cl.do(p, core.OpStat, path)
	if err != nil {
		return core.Attr{}, err
	}
	return statAttr(resp), nil
}

func (cl *bclient) Open(p *env.Proc, path string) (core.Attr, error) {
	resp, err := cl.do(p, core.OpOpen, path)
	if err != nil {
		return core.Attr{}, err
	}
	return statAttr(resp), nil
}

func (cl *bclient) Close(p *env.Proc, path string) error {
	_, err := cl.do(p, core.OpClose, path)
	return err
}

func (cl *bclient) Chmod(p *env.Proc, path string, perm core.Perm) error {
	_, err := cl.do(p, core.OpChmod, path)
	return err
}

func (cl *bclient) StatDir(p *env.Proc, path string) (core.Attr, error) {
	resp, err := cl.do(p, core.OpStatDir, path)
	if err != nil {
		return core.Attr{}, err
	}
	return core.Attr{Type: core.TypeDir, Perm: resp.Perm, Size: resp.Size}, nil
}

func (cl *bclient) ReadDir(p *env.Proc, path string) ([]core.DirEntry, error) {
	resp, err := cl.do(p, core.OpReadDir, path)
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// twoPath routes rename and link to the source's server.
func (cl *bclient) twoPath(p *env.Proc, op core.Op, src, dst string) error {
	sdir, sname, sdirPath, err := cl.resolve(p, src)
	if err != nil {
		return err
	}
	ddir, dname, ddirPath, err := cl.resolve(p, dst)
	if err != nil {
		return err
	}
	owner := cl.c.fileServerForPath(sdir, sname, sdirPath)
	_, err = cl.call(p, owner.id, &breq{Op: op,
		Dir: sdir, DirPath: sdirPath, Name: sname,
		Dir2: ddir, Dir2Path: ddirPath, Name2: dname})
	return err
}

func (cl *bclient) Rename(p *env.Proc, src, dst string) error {
	err := cl.twoPath(p, core.OpRename, src, dst)
	if err == nil {
		// A renamed directory's descendants are cached under the old path.
		cl.invalidatePrefix(src)
	}
	return err
}

func (cl *bclient) Link(p *env.Proc, src, dst string) error {
	return cl.twoPath(p, core.OpLink, src, dst)
}

// Data reads or writes chunk shard on its data node as client.dataCall does:
// a write is acked once replicated, and each of 8 tries waits 20 timeouts.
func (cl *bclient) Data(p *env.Proc, shard int, write bool, bytes int64) error {
	if cl.c.Opts.DataNodes == 0 {
		return nil
	}
	node := datanode.NodeOf(shard % cl.c.Opts.DataNodes)
	pkt, req := wire.NewPacket[wire.DataReq](node, cl.id)
	req.RPC, req.Client, req.Op = cl.ids.Next(), cl.id, core.OpRead
	req.Acked, req.Chunk, req.Bytes = cl.rpc.Acked(req.RPC), wire.ChunkKey{File: uint32(shard)}, bytes
	if write {
		req.Op = core.OpWrite
	}
	v, ok := cl.rpc.Request(p, req.RPC, 8, 20*cl.c.Opts.RetryTimeout, nil, func() { p.Send(node, pkt) })
	if !ok {
		return core.ErrTimeout
	}
	return v.(*wire.DataResp).Err.Err()
}

// ClientFS implements fsapi.System.
func (c *Cluster) ClientFS(i int) fsapi.FS { return c.clients[i%len(c.clients)] }

// SpawnClient runs fn as a process on client i's node (workload workers).
func (c *Cluster) SpawnClient(i int, fn func(p *env.Proc)) {
	c.EnvH.Spawn(c.clients[i%len(c.clients)].id, fn)
}

// Drain implements fsapi.System: baseline updates are synchronous, so there
// is no deferred work to apply.
func (c *Cluster) Drain(p *env.Proc) {}
