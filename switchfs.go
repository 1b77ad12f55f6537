// Package switchfs is a reproduction of "SwitchFS: Asynchronous Metadata
// Updates for Distributed Filesystems with In-Network Coordination"
// (EuroSys 2026): a POSIX-style distributed filesystem metadata service that
// defers directory updates into per-server change-logs and coordinates their
// visibility through an in-network dirty set hosted on a programmable-switch
// model.
//
// The package exposes an os-style deployment facade over the internal
// machinery. A deployment is sized with functional options and driven
// through bound sessions:
//
//	env := switchfs.NewSimEnv(42)                   // deterministic simulator
//	fs, err := switchfs.New(env, switchfs.WithServers(8), switchfs.WithClients(4))
//	fs.RunSession(0, func(s *switchfs.Session) {
//	    s.Mkdir("/data", 0)
//	    s.Create("/data/hello", 0)
//	    attr, _ := s.StatDir("/data")
//	    _ = attr.Size // 2 — deferred updates aggregated on read
//	})
//
// Every operation returns a *PathError (or *LinkError for two-path
// operations) wrapping one of the package's sentinel errors, so callers
// dispatch with errors.Is(err, switchfs.ErrNotExist) exactly as they would
// against package os. Content access goes through a *File handle returned by
// Session.Open, which routes reads and writes to the deployment's data
// nodes.
//
// Everything runs on one runtime, the deterministic simulator: a session
// call drives virtual time until the operation completes, and identical
// seeds give identical executions. See DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-reproduction results.
package switchfs

import (
	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/server"
)

// Re-exported types so applications need only this package.
type (
	// Proc is the execution context of filesystem operations. Applications
	// normally never see it: sessions bind one internally. It remains
	// exported for advanced harnesses that drive internal packages.
	Proc = env.Proc
	// Client is the raw LibFS handle (advanced use; sessions wrap it).
	Client = client.Client
	// Attr is a file or directory attribute block.
	Attr = core.Attr
	// DirEntry is one directory-listing entry.
	DirEntry = core.DirEntry
	// Perm is a POSIX permission word.
	Perm = core.Perm
	// FileType distinguishes files, directories and symlinks.
	FileType = core.FileType
)

// File types (aliases of internal/core's values).
const (
	TypeRegular = core.TypeRegular
	TypeDir     = core.TypeDir
	TypeSymlink = core.TypeSymlink
)

// FS is a deployed SwitchFS cluster.
type FS struct {
	c *cluster.Cluster
}

// NewSimEnv builds the deterministic discrete-event runtime used by tests
// and benchmarks; identical seeds give identical executions.
func NewSimEnv(seed int64) *env.Sim { return env.NewSim(seed) }

// New deploys a cluster (servers, switch(es), clients, data nodes) on the
// environment. Options override the paper's evaluation defaults (§7.1):
// eight 4-core metadata servers, one switch, one client, no data nodes.
func New(e *env.Sim, opts ...Option) (*FS, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	copts := cluster.Options{
		Servers:         cfg.servers,
		CoresPerServer:  cfg.coresPerServer,
		Clients:         cfg.clients,
		Switches:        cfg.switches,
		DataNodes:       cfg.dataNodes,
		DataReplication: cfg.dataReplication,
		RetryTimeout:    cfg.retryTimeout,
		Costs:           env.DefaultCosts(),
	}
	return &FS{c: cluster.New(e, copts)}, nil
}

// Session returns an unbound session for client i (mod the client pool).
// Each operation dispatches its own process on the client's node and drives
// the simulation until it completes. Use RunSession to amortize that dispatch
// over many operations.
func (f *FS) Session(i int) *Session {
	return &Session{fs: f, cl: f.c.Client(i)}
}

// RunSession runs fn with a session bound to client i: fn executes as one
// process on the client's node, and every operation on the session runs in
// that process. RunSession drives the simulation until it drains; fn must
// have completed by then.
func (f *FS) RunSession(i int, fn func(s *Session)) {
	done := false
	f.c.Env.Spawn(f.c.Client(i).ID(), func(p *env.Proc) {
		fn(&Session{fs: f, cl: f.c.Client(i), p: p})
		done = true
	})
	f.c.Env.Run()
	if !done {
		panic("switchfs: simulation drained before the session finished (deadlock?)")
	}
}

// RunSessions runs fn(i, session) concurrently for every i in [0, n): each
// invocation executes as its own process on client i's node (mod the client
// pool), so the sessions genuinely interleave in deterministic virtual time.
// RunSessions returns when every fn has completed. Checking harnesses use it
// to drive concurrent histories through the public Session API.
func (f *FS) RunSessions(n int, fn func(i int, s *Session)) {
	done := 0
	for i := 0; i < n; i++ {
		i := i
		cl := f.c.Client(i)
		f.c.Env.Spawn(cl.ID(), func(p *env.Proc) {
			fn(i, &Session{fs: f, cl: cl, p: p})
			done++
		})
	}
	f.c.Env.Run()
	if done != n {
		panic("switchfs: simulation drained before every session finished (deadlock?)")
	}
}

// CrashServer fail-stops metadata server i (its WAL survives).
func (f *FS) CrashServer(i int) { f.c.CrashServer(i) }

// RecoverServer restarts server i from its WAL and runs §5.4.2 recovery.
func (f *FS) RecoverServer(i int) { f.c.RecoverServer(i) }

// CrashSwitch clears all in-network state; RecoverSwitch restores
// consistency by flushing every change-log (§5.4.2).
func (f *FS) CrashSwitch()   { f.c.CrashSwitch() }
func (f *FS) RecoverSwitch() { f.c.RecoverSwitch() }

// CrashDataNode fail-stops data node i (its volatile chunk store is lost;
// surviving replicas carry the durability). RecoverDataNode restarts it and
// re-replicates its stripes from the peers before it serves again.
func (f *FS) CrashDataNode(i int)   { f.c.CrashDataNode(i) }
func (f *FS) RecoverDataNode(i int) { f.c.RecoverDataNode(i) }

// Cluster exposes the underlying deployment for advanced use (fault
// injection, statistics, preloading, workload harnesses).
func (f *FS) Cluster() *cluster.Cluster { return f.c }

// Servers returns the deployed metadata servers (statistics access).
func (f *FS) Servers() []*server.Server { return f.c.Servers }
