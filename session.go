package switchfs

import (
	"switchfs/internal/client"
	"switchfs/internal/core"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/wire"
)

// Session is one client's os-like view of a deployed filesystem. A session
// captures the (process, client) pair so callers never thread an execution
// context through operations: s.Mkdir("/data", 0) reads like package os.
//
// Sessions come in two flavors. FS.RunSession passes fn a session bound to
// fn's process: operations run inline and are cheap. FS.Session returns an
// unbound session whose operations each dispatch a fresh process on the
// client's node and block until it completes — convenient for scripts and
// tools, but every call drives the simulator on its own.
//
// All single-path operations return *PathError and two-path operations
// return *LinkError, each wrapping one of the package's sentinel errors.
type Session struct {
	fs *FS
	cl *client.Client
	p  *env.Proc // non-nil iff bound (inside RunSession)
}

// ClientID returns the env node id of the session's client (diagnostics).
func (s *Session) ClientID() int { return int(s.cl.ID()) }

// Now returns the current virtual clock reading in nanoseconds. History
// recorders timestamp operation intervals with it.
func (s *Session) Now() int64 {
	if s.p != nil {
		return int64(s.p.Now())
	}
	return int64(s.fs.c.Env.Now())
}

// run executes fn on the session's process, or dispatches a fresh process
// for unbound sessions.
func (s *Session) run(fn func(p *env.Proc) error) error {
	if s.p != nil {
		return fn(s.p)
	}
	var err error
	done := false
	s.fs.c.Env.Spawn(s.cl.ID(), func(p *env.Proc) {
		err = fn(p)
		done = true
	})
	s.fs.c.Env.Run()
	if !done {
		panic("switchfs: simulation drained before the operation finished (deadlock?)")
	}
	return err
}

// Create makes a regular file.
func (s *Session) Create(path string, perm Perm) error {
	return wrapPath("create", path, s.run(func(p *env.Proc) error {
		return s.cl.Create(p, path, perm)
	}))
}

// Remove unlinks a regular file.
func (s *Session) Remove(path string) error {
	return wrapPath("remove", path, s.run(func(p *env.Proc) error {
		return s.cl.Delete(p, path)
	}))
}

// Mkdir creates a directory.
func (s *Session) Mkdir(path string, perm Perm) error {
	return wrapPath("mkdir", path, s.run(func(p *env.Proc) error {
		return s.cl.Mkdir(p, path, perm)
	}))
}

// Rmdir removes an empty directory.
func (s *Session) Rmdir(path string) error {
	return wrapPath("rmdir", path, s.run(func(p *env.Proc) error {
		return s.cl.Rmdir(p, path)
	}))
}

// Stat reads a file's attributes.
func (s *Session) Stat(path string) (Attr, error) {
	var attr Attr
	err := s.run(func(p *env.Proc) error {
		a, err := s.cl.Stat(p, path)
		attr = a
		return err
	})
	return attr, wrapPath("stat", path, err)
}

// StatDir reads a directory's attributes; Attr.Size is the entry count,
// aggregated from any change-log entries still deferred (§5.2.2).
func (s *Session) StatDir(path string) (Attr, error) {
	var attr Attr
	err := s.run(func(p *env.Proc) error {
		a, err := s.cl.StatDir(p, path)
		attr = a
		return err
	})
	return attr, wrapPath("statdir", path, err)
}

// ReadDir lists a directory.
func (s *Session) ReadDir(path string) ([]DirEntry, error) {
	var entries []DirEntry
	err := s.run(func(p *env.Proc) error {
		es, err := s.cl.ReadDir(p, path)
		entries = es
		return err
	})
	return entries, wrapPath("readdir", path, err)
}

// Chmod updates a file's permissions.
func (s *Session) Chmod(path string, perm Perm) error {
	return wrapPath("chmod", path, s.run(func(p *env.Proc) error {
		return s.cl.Chmod(p, path, perm)
	}))
}

// Rename moves a file or directory.
func (s *Session) Rename(oldpath, newpath string) error {
	return wrapLink("rename", oldpath, newpath, s.run(func(p *env.Proc) error {
		return s.cl.Rename(p, oldpath, newpath)
	}))
}

// Link creates a hard link newpath pointing at oldpath's file (§5.5).
func (s *Session) Link(oldpath, newpath string) error {
	return wrapLink("link", oldpath, newpath, s.run(func(p *env.Proc) error {
		return s.cl.Link(p, oldpath, newpath)
	}))
}

// Open opens a file and returns a handle carrying its attributes and data
// placement. Content operations on the handle route to the deployment's
// data nodes.
func (s *Session) Open(path string) (*File, error) {
	f := &File{s: s, path: path}
	err := s.run(func(p *env.Proc) error {
		a, loc, err := s.cl.Open(p, path)
		f.attr, f.loc = a, loc
		return err
	})
	if err != nil {
		return nil, wrapPath("open", path, err)
	}
	return f, nil
}

// File is an open file handle, in the style of os.File over a distributed
// store: metadata operations go to the file's metadata owner, content
// operations to the data nodes recorded at open time.
type File struct {
	s      *Session
	path   string
	attr   Attr
	loc    []uint32 // data placement returned by open
	closed bool
}

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.path }

// Attr returns the attributes captured at open time (no round trip).
func (f *File) Attr() Attr { return f.attr }

// Stat re-reads the file's attributes from its metadata owner.
func (f *File) Stat() (Attr, error) {
	if f.closed {
		return Attr{}, wrapPath("stat", f.path, core.ErrClosed)
	}
	a, err := f.s.Stat(f.path)
	if err == nil {
		f.attr = a
	}
	return a, err
}

// Chmod updates the file's permissions.
func (f *File) Chmod(perm Perm) error {
	if f.closed {
		return wrapPath("chmod", f.path, core.ErrClosed)
	}
	return f.s.Chmod(f.path, perm)
}

// Read models reading n bytes of content from the file's data nodes (§7.6).
// Deployments without data nodes complete immediately (metadata-only runs).
func (f *File) Read(n int64) error {
	return f.data("read", core.OpRead, n)
}

// Write models writing n bytes of content to the file's data nodes (§7.6).
// Content is striped in stripeUnit chunks across the DataLoc placement the
// metadata server assigned at create; each chunk is acknowledged by its
// primary data node only after the deployment's replication factor is
// satisfied.
func (f *File) Write(n int64) error {
	return f.data("write", core.OpWrite, n)
}

// stripeUnit is the content stripe size: one chunk per stripeUnit bytes,
// spread round-robin over the file's DataLoc slots (§7.6 files are mostly
// small — one or two stripes).
const stripeUnit int64 = 64 << 10

func (f *File) data(opName string, op core.Op, n int64) error {
	if f.closed {
		return wrapPath(opName, f.path, core.ErrClosed)
	}
	if n < 0 {
		return wrapPath(opName, f.path, core.ErrInvalid)
	}
	nodes := f.s.fs.c.DataNodes
	if len(nodes) == 0 || n == 0 {
		return nil
	}
	loc := f.loc
	if len(loc) == 0 {
		// Pre-v2 inodes (preloaded fixtures) carry no placement; fall back
		// to a stable hash of the path.
		loc = []uint32{uint32(f.shard())}
	}
	file := f.fileKey()
	stripes := int((n + stripeUnit - 1) / stripeUnit)
	return wrapPath(opName, f.path, f.s.run(func(p *env.Proc) error {
		left := n
		for s := 0; s < stripes; s++ {
			bytes := left
			if bytes > stripeUnit {
				bytes = stripeUnit
			}
			left -= bytes
			node := nodes[datanode.StripeSlot(loc, s, len(nodes))]
			chunk := wire.ChunkKey{File: file, Stripe: uint32(s)}
			var err error
			if op == core.OpWrite {
				_, err = f.s.cl.WriteChunk(p, node, chunk, bytes)
			} else {
				_, _, err = f.s.cl.ReadChunk(p, node, chunk)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}))
}

// fileKey is the chunk-key file hash: stable per path.
func (f *File) fileKey() uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(f.path); i++ {
		h = (h ^ uint32(f.path[i])) * 16777619
	}
	return h
}

// shard picks the data node slot: the placement recorded at open when the
// metadata server assigned one, else a stable hash of the path.
func (f *File) shard() int {
	if len(f.loc) > 0 {
		return int(f.loc[0] & 0x7fffffff)
	}
	// Mask to keep the index non-negative on 32-bit ints.
	return int(f.fileKey() & 0x7fffffff)
}

// Close releases the handle at the metadata service. Closing twice returns
// ErrClosed.
func (f *File) Close() error {
	if f.closed {
		return wrapPath("close", f.path, core.ErrClosed)
	}
	f.closed = true
	return wrapPath("close", f.path, f.s.run(func(p *env.Proc) error {
		return f.s.cl.Close(p, f.path)
	}))
}
