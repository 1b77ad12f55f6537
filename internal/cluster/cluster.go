// Package cluster assembles SwitchFS deployments over an environment:
// metadata servers, programmable switches (or tracker variants), clients and
// data nodes — plus the fault and reconfiguration orchestration used by the
// recovery experiments (§5.4, §5.5, §7.7).
package cluster

import (
	"fmt"

	"switchfs/internal/client"
	"switchfs/internal/core"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/metrics"
	"switchfs/internal/pswitch"
	"switchfs/internal/ring"
	"switchfs/internal/server"
	"switchfs/internal/trace"
	"switchfs/internal/wal"
)

// Node id layout (the "MAC addresses" of the L2 network); data nodes sit at
// datanode.NodeOf.
const (
	switchBase  env.NodeID = 1
	trackerNode env.NodeID = 90
	serverBase  env.NodeID = 100
	clientBase  env.NodeID = 10000
)

// Options configures a cluster.
type Options struct {
	Servers        int
	CoresPerServer int
	Clients        int
	DataNodes      int
	// DataReplication is the data-plane replication factor r: a chunk is
	// acked only after its primary and r−1 backups applied (default 2,
	// capped at DataNodes).
	DataReplication int
	// Switches > 1 range-partitions fingerprints over spine switches (§6.4).
	Switches int
	Costs    env.Costs
	Tracker  server.TrackerMode
	// Updates picks the §7.3.1 contribution-breakdown row; zero is the full
	// design.
	Updates server.UpdateMode
	// ForceOverflow makes every dirty-set insert fail (§7.3.2).
	ForceOverflow bool
	// SwitchIndexBits sizes each of the switch's 10 dirty-set stages; zero
	// means the paper's 2^17 slots.
	SwitchIndexBits uint
	// Protocol tunables forwarded to servers.
	PushEntries  int
	PushIdle     env.Duration
	OwnerQuiesce env.Duration
	RetryTimeout env.Duration
	// ClientMaxRetries bounds client request retransmission (zero keeps the
	// client default). Fault harnesses shrink it so operations give up —
	// and become observably ambiguous — inside a plan's horizon.
	ClientMaxRetries int
	// Trace, when non-nil, records causal spans across every component
	// (clients, switches, servers, data nodes).
	Trace *trace.Recorder
}

// Defaults fills zero fields with the paper's evaluation setup (§7.1): eight
// four-core servers, one switch.
func (o *Options) Defaults() {
	if o.Servers == 0 {
		o.Servers = 8
	}
	if o.CoresPerServer == 0 {
		o.CoresPerServer = 4
	}
	if o.Clients == 0 {
		o.Clients = 1
	}
	if o.Switches == 0 {
		o.Switches = 1
	}
	if o.DataReplication == 0 {
		o.DataReplication = 2
	}
	if o.DataNodes > 0 && o.DataReplication > o.DataNodes {
		o.DataReplication = o.DataNodes
	}
}

// Cluster is a wired deployment.
type Cluster struct {
	Env  *env.Sim
	Opts Options
	// Ring is the shared versioned placement ring every server and client
	// consults; migration and reconfiguration drive it (overrides, resets).
	Ring      *ring.Ring
	Servers   []*server.Server
	Switches  []*pswitch.Switch
	Clients   []*client.Client
	DataNodes []env.NodeID
	// DataServers are the data-plane nodes behind the DataNodes ids.
	DataServers []*datanode.Server
	wals        []*wal.Mem
	// dataDown counts data nodes currently fail-stopped (a recovering node
	// counts until its re-replication pull completes): while dataDown >= r,
	// a chunk's whole replica set may be gone at once.
	dataDown int
	// reconfiguring marks an in-flight Reconfigure; RecoverServer waits it
	// out before restarting a server.
	reconfiguring bool
	// unflushed holds the server slots that were down when a switch reboot
	// flushed the change-logs: their entries are in no dirty set. While any
	// has not finished Recover (which re-delivers them), the switches answer
	// every query dirty.
	unflushed map[int]bool
	// maxServers is the widest the server set has ever been: metrics and
	// PerServerOps emit this many slot-indexed rows so a shrink zeroes a
	// removed slot's row instead of silently dropping it (-compare would
	// report ROW-GONE where an explicit zero is the truthful shape).
	maxServers int
	// moves counts completed directory migrations (rebalance + reconfigure).
	moves uint64
}

// ServerOf maps a placement slot to a node id.
func ServerOf(slot uint32) env.NodeID { return serverBase + env.NodeID(slot) }

// New builds a cluster.
func New(e *env.Sim, opts Options) *Cluster {
	opts.Defaults()
	c := &Cluster{Env: e, Opts: opts, unflushed: make(map[int]bool)}

	slots := make([]uint32, opts.Servers)
	for i := range slots {
		slots[i] = uint32(i)
	}
	c.Ring = ring.New(slots, 0, ServerOf)
	c.maxServers = opts.Servers

	peers := serverIDs(opts.Servers)

	// Switches (or the dedicated tracker server).
	switch opts.Tracker {
	case server.TrackerServer:
		sw := pswitch.New(trackerNode, pswitch.Config{
			IndexBits: opts.SwitchIndexBits,
			Servers:   peers,
			Trace:     opts.Trace,
		})
		if opts.ForceOverflow {
			sw.ForceOverflow(true)
		}
		c.Switches = []*pswitch.Switch{sw}
		// The dedicated server pays 1 µs of CPU per packet on 12 cores — the
		// throughput ceiling of Fig. 15(b).
		e.AddNode(trackerNode, env.NodeConfig{
			Cores: 12,
			Handler: func(p *env.Proc, from env.NodeID, msg any) {
				p.Compute(1 * env.Microsecond)
				sw.Handler(p, from, msg)
			},
		})
	case server.TrackerOwner:
		// Each owner tracks its own directories: no switch.
	default:
		for i := 0; i < opts.Switches; i++ {
			id := switchBase + env.NodeID(i)
			sw := pswitch.New(id, pswitch.Config{
				IndexBits: opts.SwitchIndexBits,
				PipeDelay: opts.Costs.SwitchPipe,
				Servers:   peers,
				Trace:     opts.Trace,
			})
			if opts.ForceOverflow {
				sw.ForceOverflow(true)
			}
			c.Switches = append(c.Switches, sw)
			e.AddNode(id, env.NodeConfig{Handler: sw.Handler})
		}
	}

	// Metadata servers.
	for i := 0; i < opts.Servers; i++ {
		c.addServer(i)
	}

	// Clients. They share one method value: each c.switchOf would be a
	// closure of its own, 16 bytes a client.
	switchFor := c.switchOf
	for i := 0; i < opts.Clients; i++ {
		cl := client.New(e, client.Config{
			ID:           clientBase + env.NodeID(i),
			Ring:         c.Ring,
			SwitchFor:    switchFor,
			Coordinator:  ServerOf(0),
			Tracker:      opts.Tracker,
			Costs:        opts.Costs,
			RetryTimeout: opts.RetryTimeout,
			MaxRetries:   opts.ClientMaxRetries,
			Trace:        opts.Trace,
		})
		c.Clients = append(c.Clients, cl)
	}

	// Data nodes (end-to-end workloads, §7.6): real replicated chunk
	// servers, not cost-burning stubs — writes are acked only after the
	// replication factor is satisfied, and retransmissions are deduped.
	for i := 0; i < opts.DataNodes; i++ {
		c.DataNodes = append(c.DataNodes, datanode.NodeOf(i))
		c.DataServers = append(c.DataServers, datanode.New(e, dataNodeConfigOf(c, i)))
	}
	return c
}

// serverIDs returns the node ids of the first n server slots.
func serverIDs(n int) []env.NodeID {
	ids := make([]env.NodeID, n)
	for i := range ids {
		ids[i] = ServerOf(uint32(i))
	}
	return ids
}

// switchOf routes fp's dirty-set operations, for servers and clients alike:
// to the dedicated tracker server, to fp's owner (the owner-tracker
// variant), or to the switch whose fingerprint range holds fp (§6.4).
func (c *Cluster) switchOf(fp core.Fingerprint) env.NodeID {
	switch c.Opts.Tracker {
	case server.TrackerServer:
		return trackerNode
	case server.TrackerOwner:
		return c.Ring.OwnerNode(fp)
	}
	i := int(uint64(fp)>>(core.FingerprintBits-8)) % len(c.Switches)
	return c.Switches[i].ID
}

// addServer builds server i, with the config serverConfigOf gives it, on a
// fresh WAL.
func (c *Cluster) addServer(i int) {
	w := wal.NewMem()
	c.wals = append(c.wals, w)
	cfg := serverConfigOf(c, i)
	cfg.WAL = w
	c.Servers = append(c.Servers, server.New(c.Env, cfg))
}

// dataNodeConfigOf builds data node i's config.
func dataNodeConfigOf(c *Cluster, i int) datanode.Config {
	return datanode.Config{
		Slot:         i,
		Nodes:        c.Opts.DataNodes,
		Replication:  c.Opts.DataReplication,
		Cores:        4,
		Costs:        c.Opts.Costs,
		RetryTimeout: c.Opts.RetryTimeout,
		Trace:        c.Opts.Trace,
	}
}

// Client returns the i-th client (mod the pool).
func (c *Cluster) Client(i int) *client.Client { return c.Clients[i%len(c.Clients)] }

// ServerID returns server i's node id.
func (c *Cluster) ServerID(i int) env.NodeID { return c.Servers[i].ID() }

// ClientID returns client i's node id (mod the pool).
func (c *Cluster) ClientID(i int) env.NodeID { return c.Client(i).ID() }

// SwitchID returns switch i's node id.
func (c *Cluster) SwitchID(i int) env.NodeID { return c.Switches[i].ID }

// SetServerCores degrades (or restores) server i's usable core count in
// place — the gray failure of §5.4-style partial degradation, where a node
// answers but slowly. Pass srv.Cores() to restore.
func (c *Cluster) SetServerCores(i, cores int) { c.Servers[i].SetCores(cores) }

// SlowSwitch adds d of extra pipeline delay to switch i (gray failure:
// a congested pipe). Zero restores nominal speed.
func (c *Cluster) SlowSwitch(i int, d env.Duration) { c.Switches[i].SetExtraDelay(d) }

// PerServerOps returns each metadata server's executed-op count, indexed by
// server number. The sum is deterministic under Sim; figures carry it as a
// load-balance signal. The slice length is the widest the server set has
// ever been: a slot removed by a shrink keeps its row at zero, so bench
// tables keep a stable shape across reconfigurations.
func (c *Cluster) PerServerOps() []uint64 {
	out := make([]uint64, c.maxServers)
	for i, s := range c.Servers {
		out[i] = s.Stats.Ops
	}
	return out
}

// metricsTopDirs bounds the directory-group tallies exported per server: only
// the hottest K groups become metric keys, keeping snapshots small and
// schema-stable no matter how wide the namespace grew.
const metricsTopDirs = 4

// FillMetrics pours the cluster's per-node counters into reg. Keys are
// stable strings (`server.<i>.ops`, `switch.<i>.queries`, ...) so two
// same-seed runs produce identical snapshots; the balancer's directory-group
// tallies are exported rank-keyed (hottest first) and capped at
// metricsTopDirs entries.
// Client counters are summed over the clients (`client.retries`, ...): a
// deployment may run a million of them.
func (c *Cluster) FillMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	// Slot-indexed over the widest-ever server set: a shrink leaves the
	// removed slot's counters at explicit zeros rather than dropping the
	// rows (-compare's shape gate reads a missing key as ROW-GONE).
	for i := 0; i < c.maxServers; i++ {
		pre := fmt.Sprintf("server.%d.", i)
		var st server.Stats
		var dirs []server.FPOp
		var held uint64
		if i < len(c.Servers) {
			st = c.Servers[i].Stats
			dirs = c.Servers[i].FPOps()
			held = c.Servers[i].WAL().Held()
		}
		reg.Add(pre+"ops", st.Ops)
		reg.Add(pre+"async_commits", st.AsyncCommits)
		reg.Add(pre+"sync_commits", st.SyncCommits)
		reg.Add(pre+"fallbacks", st.Fallbacks)
		reg.Add(pre+"aggregations", st.Aggregations)
		reg.Add(pre+"agg_entries", st.AggEntries)
		reg.Add(pre+"pushes", st.Pushes)
		reg.Add(pre+"retries", st.Retries)
		reg.Add(pre+"recover_redo_us", st.RecoverRedoUs)
		reg.Add(pre+"recover_redo_records", st.RecoverRedoRecords)
		reg.Add(pre+"recover_redo_longest_lane", st.RecoverRedoLongestLane)
		reg.Add(pre+"recover_redeliver_us", st.RecoverRedeliverUs)
		reg.Add(pre+"recover_aggregate_us", st.RecoverAggregateUs)
		reg.Add(pre+"recover_clone_us", st.RecoverCloneUs)
		reg.Add(pre+"parked", st.Parked)
		reg.Add(pre+"parked_superseded", st.ParkedSuperseded)
		reg.Add(pre+"agg_released", st.AggReleased)
		reg.Add(pre+"rename_flushes", st.RenameFlushes)
		reg.Add(pre+"rename_flush_pushes", st.RenameFlushPushes)
		reg.Add(pre+"wal_records", st.WALRecords)
		reg.Add(pre+"wal_bytes", st.WALBytes)
		reg.Add(pre+"wal_held_bytes", held)
		reg.Add(pre+"checkpoints", st.Checkpoints)
		for rank, d := range dirs {
			if rank >= metricsTopDirs {
				break
			}
			reg.Add(fmt.Sprintf("%sdir.%d.ops", pre, rank), d.N)
		}
	}
	for i, sw := range c.Switches {
		pre := fmt.Sprintf("switch.%d.", i)
		reg.Add(pre+"queries", sw.Stats.Queries)
		reg.Add(pre+"inserts", sw.Stats.Inserts)
		reg.Add(pre+"removes", sw.Stats.Removes)
		reg.Add(pre+"overflows", sw.Stats.Overflows)
		reg.Add(pre+"forwarded", sw.Stats.Forwarded)
		held, max := sw.HeldSets()
		reg.Add(pre+"dirty_sets_held", uint64(held))
		reg.Add(pre+"dirty_sets_max", uint64(max))
	}
	for i, d := range c.DataServers {
		pre := fmt.Sprintf("data.%d.", i)
		reg.Add(pre+"reads", d.Stats.Reads)
		reg.Add(pre+"writes", d.Stats.Writes)
		reg.Add(pre+"replicated", d.Stats.Replicated)
		reg.Add(pre+"retries", d.Stats.Retries)
	}
	for _, cl := range c.Clients {
		reg.Add("client.retries", cl.Retries)
		reg.Add("client.lookups", cl.Lookups)
		reg.Add("client.cache_hits", cl.CacheHits)
		reg.Add("client.stale_retries", cl.StaleRetry)
	}
	reg.Add("env.events", c.Env.Events)
	reg.Add("env.parks", c.Env.Parks)
}

// Run spawns fn on client i's node and drives the simulation until it drains;
// fn must have completed by then.
func (c *Cluster) Run(i int, fn func(p *env.Proc, cl *client.Client)) {
	cl := c.Client(i)
	done := false
	c.Env.Spawn(cl.ID(), func(p *env.Proc) {
		fn(p, cl)
		done = true
	})
	c.Env.Run()
	if !done {
		panic("cluster: simulation drained before the client finished (deadlock?)")
	}
}

// RunNoDrain spawns fn on client i's node and stops the simulation as soon
// as fn completes — pending proactive-aggregation timers stay queued instead
// of draining. Fault-injection harnesses use this to crash components while
// deferred updates are still outstanding.
func (c *Cluster) RunNoDrain(i int, fn func(p *env.Proc, cl *client.Client)) {
	cl := c.Client(i)
	c.Env.Spawn(cl.ID(), func(p *env.Proc) {
		fn(p, cl)
		c.Env.Stop()
	})
	c.Env.Run()
}

// CrashServer fail-stops server i (volatile state lost, WAL survives).
func (c *Cluster) CrashServer(i int) { c.Servers[i].Crash() }

// RecoverServer restarts server i from its WAL and runs §5.4.2 recovery on a
// process; it reports the virtual time the recovery took via the returned
// future (completed with env.Duration).
//
// The restart is sequenced against reconfiguration from inside the spawned
// process: a recovery landing mid-Reconfigure waits the reconfiguration out
// before building the new incarnation. Swapping c.Servers[i] any earlier
// would let a migration copy from a freshly-constructed, not-yet-replayed
// (empty) store; and the restart-then-replay sequence runs without a park,
// so a reconfiguration can never observe the swapped-but-unreplayed server.
// A Reconfigure that starts while the replay runs does not change whether
// the recovered server serves: a live reconfiguration migrates group by
// group with every server serving.
func (c *Cluster) RecoverServer(i int) *env.Future {
	old := c.Servers[i]
	fut := env.NewFuture()
	c.Env.Spawn(old.ID(), func(p *env.Proc) {
		for c.reconfiguring {
			p.Sleep(100 * env.Microsecond)
		}
		if i >= len(c.Servers) {
			// A concurrent shrink removed this slot; the server has no seat
			// to rejoin (its migrated records live on the surviving ring).
			fut.Complete(fmt.Errorf("cluster: server %d was removed by reconfiguration", i))
			return
		}
		start := p.Now()
		cfg := serverConfigOf(c, i)
		srv := server.Restart(c.Env, cfg, old.WAL())
		c.Servers[i] = srv
		if err := srv.Recover(p); err != nil {
			fut.Complete(err)
			return
		}
		if c.unflushed[i] {
			delete(c.unflushed, i)
			c.setDirtyAll(len(c.unflushed) > 0)
		}
		fut.Complete(p.Now() - start)
	})
	return fut
}

// serverConfigOf is server i's config, at construction and at every
// restart; only its WAL is the caller's.
func serverConfigOf(c *Cluster, i int) server.Config {
	return server.Config{
		ID:           ServerOf(uint32(i)),
		Cores:        c.Opts.CoresPerServer,
		Costs:        c.Opts.Costs,
		Ring:         c.Ring,
		Peers:        serverIDs(c.Opts.Servers),
		SwitchFor:    c.switchOf,
		Coordinator:  ServerOf(0),
		Tracker:      c.Opts.Tracker,
		DataNodes:    c.Opts.DataNodes,
		Updates:      c.Opts.Updates,
		PushEntries:  c.Opts.PushEntries,
		PushIdle:     c.Opts.PushIdle,
		OwnerQuiesce: c.Opts.OwnerQuiesce,
		RetryTimeout: c.Opts.RetryTimeout,
		Trace:        c.Opts.Trace,
	}
}

// CrashDataNode fail-stops data node i: the volatile chunk store is lost
// with the incarnation; surviving replicas carry the durability.
func (c *Cluster) CrashDataNode(i int) {
	c.DataServers[i].Crash()
	c.dataDown++
}

// RecoverDataNode restarts data node i with an empty store and
// re-replicates its stripes from the surviving peers before it serves
// again. The returned future completes with the virtual duration (or an
// error). The node counts as down until the pull completes; a recovery
// whose pull reaches no peer fails and re-fail-stops the node, so a later
// attempt (the chaos harness retries after healing) can succeed instead of
// serving an empty store.
func (c *Cluster) RecoverDataNode(i int) *env.Future {
	fut := env.NewFuture()
	id := c.DataServers[i].ID()
	c.Env.Spawn(id, func(p *env.Proc) {
		start := p.Now()
		srv := datanode.Restart(c.Env, dataNodeConfigOf(c, i))
		c.DataServers[i] = srv
		if err := srv.Recover(p); err != nil {
			srv.Crash() // stay fail-stopped (and still counted down)
			fut.Complete(err)
			return
		}
		c.dataDown--
		fut.Complete(p.Now() - start)
	})
	return fut
}

// DataNodesDown reports how many data nodes are currently fail-stopped or
// still re-replicating. A caller watching durability compares it against
// Opts.DataReplication: at >= r concurrent failures a chunk's whole
// replica set may have been wiped.
func (c *Cluster) DataNodesDown() int { return c.dataDown }

// CrashSwitch reboots the switches (§5.4.2 "Switch failure"): all dirty-set
// state clears and the switch drops off the network until RecoverSwitch
// completes — while it reboots, nothing it tracks or forwards flows, so
// reads cannot observe the momentarily-inconsistent empty dirty set.
func (c *Cluster) CrashSwitch() {
	for _, sw := range c.Switches {
		sw.Reset()
		if n := c.Env.Node(sw.ID); n != nil {
			n.SetDown(true)
		}
	}
}

// RecoverSwitch restores consistency after a switch reboot: every server
// flushes its change-logs so all directories return to normal state,
// matching the empty dirty set; only then does the switch rejoin the
// network. A server that is down cannot flush, and the entries it logged
// before it crashed may be in no dirty set now: until it has recovered, the
// switch rejoins answering every query dirty, so directory reads aggregate,
// and an aggregation that misses the down server ends incomplete and retries
// (one failure at a time, §5.4.2, would never see this). The returned future
// completes with the virtual duration.
func (c *Cluster) RecoverSwitch() *env.Future {
	fut := env.NewFuture()
	c.Env.Spawn(c.Servers[0].ID(), func(p *env.Proc) {
		start := p.Now()
		// Flush sequentially from an orchestration process; servers stop
		// serving while flushing.
		for i := 0; i < len(c.Servers); i++ {
			srv := c.Servers[i]
			if srv.Node().Down() {
				c.unflushed[i] = true
			}
			sub := env.NewFuture()
			c.Env.Spawn(srv.ID(), func(sp *env.Proc) {
				srv.FlushAll(sp)
				sub.Complete(nil)
			})
			sub.Wait(p)
		}
		c.setDirtyAll(len(c.unflushed) > 0)
		for _, sw := range c.Switches {
			if n := c.Env.Node(sw.ID); n != nil {
				n.SetDown(false)
			}
		}
		fut.Complete(p.Now() - start)
	})
	return fut
}

// setDirtyAll sets or lifts every switch's all-dirty hold.
func (c *Cluster) setDirtyAll(v bool) {
	for _, sw := range c.Switches {
		sw.SetDirtyAll(v)
	}
}

// String summarizes the deployment.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{%d servers × %d cores, %d switches, %d clients}",
		c.Opts.Servers, c.Opts.CoresPerServer, len(c.Switches), len(c.Clients))
}
