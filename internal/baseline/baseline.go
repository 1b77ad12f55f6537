// Package baseline implements the emulated comparison systems of the paper's
// evaluation (§7.1): Emulated-InfiniFS (parent/children grouping via
// per-directory hashing), Emulated-CFS (parent/children separation via
// per-file hashing with cross-server transactions), a modeled CephFS
// (subtree partitioning plus a heavy per-operation software stack), and a
// modeled IndexFS (grouping, no rmdir). All baselines use synchronous
// metadata updates and share the storage (kv), CPU (env cores) and network
// framework with SwitchFS, mirroring the paper's fair-comparison setup.
package baseline

import (
	"fmt"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/kv"
	"switchfs/internal/rpc"
)

// Mode selects the emulated system.
type Mode int

// Baseline systems.
const (
	// InfiniFS: P/C grouping; double-inode file ops local; mkdir/rmdir
	// cross-server (Tab. 1).
	InfiniFS Mode = iota
	// CFS: P/C separation; all double-inode ops cross-server.
	CFS
	// Ceph: subtree partitioning (first path component) + heavy software
	// stack per op.
	Ceph
	// IndexFS: grouping variant without rmdir support.
	IndexFS
)

func (m Mode) String() string {
	switch m {
	case InfiniFS:
		return "Emulated-InfiniFS"
	case CFS:
		return "Emulated-CFS"
	case Ceph:
		return "CephFS"
	case IndexFS:
		return "IndexFS"
	default:
		return "baseline?"
	}
}

// Options configures a baseline cluster.
type Options struct {
	Mode           Mode
	Servers        int
	CoresPerServer int
	Clients        int
	DataNodes      int
	Costs          env.Costs
	RetryTimeout   env.Duration
}

// Node id layout, disjoint from the SwitchFS cluster's.
const (
	serverBase env.NodeID = 30000
	clientBase env.NodeID = 40000
	dataBase   env.NodeID = 50000
)

// Cluster is a deployed baseline system.
type Cluster struct {
	EnvH    *env.Sim
	Opts    Options
	servers []*bserver
	clients []*bclient
	idgen   *core.IDGen
}

// New deploys a baseline cluster.
func New(e *env.Sim, opts Options) *Cluster {
	if opts.Servers == 0 {
		opts.Servers = 8
	}
	if opts.CoresPerServer == 0 {
		opts.CoresPerServer = 4
	}
	if opts.Clients == 0 {
		opts.Clients = 1
	}
	if opts.RetryTimeout == 0 {
		opts.RetryTimeout = 2 * env.Millisecond
	}
	c := &Cluster{EnvH: e, Opts: opts, idgen: core.NewIDGen(0xBA5E)}
	for i := 0; i < opts.Servers; i++ {
		s := &bserver{
			c:        c,
			id:       serverBase + env.NodeID(i),
			kv:       kv.New(),
			locks:    make(map[core.DirID]*env.RWMutex),
			calls:    make(map[uint64]*env.Future),
			inflight: make(map[reqKey]bool),
			served:   rpc.NewWindow[reqKey, any](4096),
		}
		e.AddNode(s.id, env.NodeConfig{Cores: opts.CoresPerServer, Handler: s.handle})
		c.servers = append(c.servers, s)
	}
	for i := 0; i < opts.Clients; i++ {
		cl := &bclient{
			c:     c,
			id:    clientBase + env.NodeID(i),
			cache: map[string]core.DirID{"/": core.RootDirID},
			calls: make(map[uint64]*env.Future),
		}
		e.AddNode(cl.id, env.NodeConfig{Handler: cl.handle})
		c.clients = append(c.clients, cl)
	}
	for i := 0; i < opts.DataNodes; i++ {
		id := dataBase + env.NodeID(i)
		cost := opts.Costs.DataIO
		e.AddNode(id, env.NodeConfig{Cores: 4, Handler: func(p *env.Proc, from env.NodeID, msg any) {
			req, ok := msg.(*bdata)
			if !ok {
				return
			}
			p.Compute(cost)
			p.Send(req.From, &bresp{RPC: req.RPC})
		}})
	}
	// Root directory lives on its owner.
	root := c.dirServer(core.RootDirID)
	root.kv.Put(dirKey(core.RootDirID), encodeDir(&dirRecord{Perm: core.DefaultDirPerm}))
	return c
}

// Name implements fsapi.System.
func (c *Cluster) Name() string { return c.Opts.Mode.String() }

// ServerNode returns server i's node id (fault-injection targeting).
func (c *Cluster) ServerNode(i int) env.NodeID { return c.servers[i].id }

// ClientNode returns client i's node id (fault-injection targeting).
func (c *Cluster) ClientNode(i int) env.NodeID { return c.clients[i%len(c.clients)].id }

// PerServerOps returns each server's executed client-request count, indexed
// by server number (the per-server tallies figures carry).
func (c *Cluster) PerServerOps() []uint64 {
	out := make([]uint64, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.ops
	}
	return out
}

// nextID allocates a directory id.
func (c *Cluster) nextID() core.DirID {
	return c.idgen.Next()
}

// dirServer places a directory's metadata (inode, dentries, child file
// inodes under grouping). InfiniFS/IndexFS hash the directory id; Ceph pins
// whole subtrees (approximated by the directory id of the top-level
// ancestor, carried in the id's low bits at Preload/creation time — see
// subtreeOf); CFS also hashes the directory id for the directory's own
// metadata.
func (c *Cluster) dirServer(id core.DirID) *bserver {
	h := id[0] ^ id[1]*0x9E37 ^ id[3]
	return c.servers[int(h%uint64(len(c.servers)))]
}

// fileServer places a file inode: grouping modes colocate with the parent
// directory; CFS hashes (pid, name).
func (c *Cluster) fileServer(pid core.DirID, name string) *bserver {
	switch c.Opts.Mode {
	case CFS:
		return c.servers[int(core.Hash64(pid, name)%uint64(len(c.servers)))]
	default:
		return c.dirServer(pid)
	}
}

// subtree pinning for Ceph: every directory carries the server index it was
// pinned to at creation; we store it in the directory record.

// --- storage records ---------------------------------------------------------

// dirRecord is a directory's metadata in a baseline store.
type dirRecord struct {
	Perm    core.Perm
	Size    int64
	Mtime   int64
	Subtree int32 // Ceph: pinned server index
}

func dirKey(id core.DirID) []byte {
	b := make([]byte, 0, 33)
	b = append(b, 'D')
	return id.AppendBinary(b)
}

func fileKey(pid core.DirID, name string) []byte {
	b := make([]byte, 0, 34+len(name))
	b = append(b, 'F')
	b = pid.AppendBinary(b)
	b = append(b, '/')
	return append(b, name...)
}

func entKey(pid core.DirID, name string) []byte {
	b := make([]byte, 0, 34+len(name))
	b = append(b, 'E')
	b = pid.AppendBinary(b)
	b = append(b, '/')
	return append(b, name...)
}

func encodeDir(r *dirRecord) []byte {
	b := make([]byte, 0, 24)
	b = append(b, byte(r.Perm>>8), byte(r.Perm))
	for _, v := range []int64{r.Size, r.Mtime, int64(r.Subtree)} {
		for i := 56; i >= 0; i -= 8 {
			b = append(b, byte(uint64(v)>>uint(i)))
		}
	}
	return b
}

func decodeDir(b []byte) *dirRecord {
	if len(b) < 26 {
		return &dirRecord{}
	}
	rd := func(o int) int64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(b[o+i])
		}
		return int64(v)
	}
	return &dirRecord{
		Perm:    core.Perm(uint16(b[0])<<8 | uint16(b[1])),
		Size:    rd(2),
		Mtime:   rd(10),
		Subtree: int32(rd(18)),
	}
}

// Preload implements fsapi.System: installs directories and files directly.
func (c *Cluster) Preload(dirs []string, filesPerDir int) {
	for _, d := range dirs {
		id := c.preloadDir(d)
		srv := c.ownerForDirID(id, d)
		for i := 0; i < filesPerDir; i++ {
			name := fmt.Sprintf("f%d", i)
			fs := c.fileServerForPath(id, name, d)
			fs.kv.Put(fileKey(id, name), []byte{1})
			srv.kv.Put(entKey(id, name), []byte{1})
		}
		raw, _ := srv.kv.Get(dirKey(id))
		r := decodeDir(raw)
		r.Size += int64(filesPerDir)
		srv.kv.Put(dirKey(id), encodeDir(r))
	}
}

// ownerForDirID returns the server holding a directory's metadata, honoring
// Ceph subtree pinning by path.
func (c *Cluster) ownerForDirID(id core.DirID, path string) *bserver {
	if c.Opts.Mode == Ceph {
		return c.servers[c.subtreeOf(path)]
	}
	return c.dirServer(id)
}

func (c *Cluster) fileServerForPath(pid core.DirID, name, dirPath string) *bserver {
	if c.Opts.Mode == Ceph {
		return c.servers[c.subtreeOf(dirPath)]
	}
	return c.fileServer(pid, name)
}

// subtreeOf pins a path's subtree to a server: CephFS partitions the tree at
// coarse grain, so everything under one top-level directory shares a server.
func (c *Cluster) subtreeOf(path string) int {
	comps, err := core.SplitPath(path)
	if err != nil || len(comps) == 0 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(comps[0]); i++ {
		h = (h ^ uint64(comps[0][i])) * 1099511628211
	}
	return int(h % uint64(len(c.servers)))
}

// preloadDir ensures a directory path exists and returns its id.
func (c *Cluster) preloadDir(path string) core.DirID {
	cl := c.clients[0]
	if id, ok := cl.cache[path]; ok {
		return id
	}
	comps, err := core.SplitPath(path)
	if err != nil {
		panic(err)
	}
	cur := core.RootDirID
	walked := ""
	for _, comp := range comps {
		walked += "/" + comp
		id, ok := cl.cache[walked]
		if ok {
			cur = id
			continue
		}
		id = c.nextID()
		parentSrv := c.ownerForDirID(cur, parentPath(walked))
		dirSrv := c.ownerForDirID(id, walked)
		dirSrv.kv.Put(dirKey(id), encodeDir(&dirRecord{Perm: core.DefaultDirPerm}))
		parentSrv.kv.Put(entKey(cur, comp), []byte{2})
		parentSrv.kv.Put(fileKey(cur, comp), append([]byte{2}, dirKey(id)...))
		raw, _ := parentSrv.kv.Get(dirKey(cur))
		r := decodeDir(raw)
		r.Size++
		parentSrv.kv.Put(dirKey(cur), encodeDir(r))
		// Share the resolved id with every client cache.
		for _, cc := range c.clients {
			cc.cache[walked] = id
		}
		cur = id
	}
	return cur
}

func parentPath(path string) string {
	for i := len(path) - 1; i > 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "/"
}
