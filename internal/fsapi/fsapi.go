// Package fsapi defines the operation surface shared by SwitchFS and the
// emulated baseline systems, so workloads and figure harnesses drive every
// system under comparison through one interface (the paper's evaluation
// methodology, §7.1).
package fsapi

import (
	"switchfs/internal/core"
	"switchfs/internal/env"
)

// FS is one client's view of a filesystem under test. Operations block the
// calling process until completion. Read-style operations return typed
// results so harnesses can verify what the evaluation actually reads back,
// not just that the call completed.
type FS interface {
	Create(p *env.Proc, path string) error
	Delete(p *env.Proc, path string) error
	Mkdir(p *env.Proc, path string) error
	Rmdir(p *env.Proc, path string) error
	// Stat returns the file's attribute block.
	Stat(p *env.Proc, path string) (core.Attr, error)
	// Open returns the file's attribute block captured at open time.
	Open(p *env.Proc, path string) (core.Attr, error)
	Close(p *env.Proc, path string) error
	Chmod(p *env.Proc, path string, perm core.Perm) error
	// StatDir returns the directory's attributes; Attr.Size is the entry
	// count after aggregating deferred updates.
	StatDir(p *env.Proc, path string) (core.Attr, error)
	// ReadDir returns the directory's entry list.
	ReadDir(p *env.Proc, path string) ([]core.DirEntry, error)
	Rename(p *env.Proc, src, dst string) error
	// Link creates a hard link dst pointing at src's file (§5.5).
	Link(p *env.Proc, src, dst string) error
	// Data models a small-file content access on a data node (§7.6).
	Data(p *env.Proc, shard int, write bool, bytes int64) error
}

// System builds per-worker FS handles and stands up namespaces.
type System interface {
	// Name labels result rows.
	Name() string
	// ClientFS returns the FS bound to client i (mod the client pool).
	ClientFS(i int) FS
	// Preload installs a namespace without going through the protocol:
	// filesPerDir files named f0..fN-1 in each listed directory.
	Preload(dirs []string, filesPerDir int)
	// SpawnClient runs fn as a process on client i's node (mod the client
	// pool): the workers of a workload and the readers of a harness issue
	// from the node whose FS they use.
	SpawnClient(i int, fn func(p *env.Proc))
	// Drain applies all deferred background work immediately (change-log
	// flushes), so sustained-throughput measurements charge systems for the
	// work their operations deferred. Synchronous systems are already
	// drained.
	Drain(p *env.Proc)
}
