package main

import (
	"switchfs/internal/cluster"
	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/metrics"
	"switchfs/internal/trace"
)

// The deployment every workload runs on (§7.1): eight four-core metadata
// servers, eight client nodes, one switch with a 10 × 2^14 dirty set.
const (
	numServers     = 8
	coresPerServer = 4
	numClients     = 8
	switchIdxBits  = 14
	dataRepl       = 2
)

// deployment is the system under test. This file is the only one that
// imports the cluster package, and surface_test.go pins the members of
// Cluster it may touch: the benchmark is frozen once it lands, so it has to
// keep compiling while later PRs rework the layers behind this surface.
type deployment struct {
	sim     *env.Sim
	cluster *cluster.Cluster
}

// deploy builds a fresh simulator and cluster. rec may be nil (untraced).
func deploy(seed int64, dataNodes int, rec *trace.Recorder) *deployment {
	sim := env.NewSim(seed)
	c := cluster.New(sim, cluster.Options{
		Servers:         numServers,
		CoresPerServer:  coresPerServer,
		Clients:         numClients,
		DataNodes:       dataNodes,
		DataReplication: dataRepl,
		SwitchIndexBits: switchIdxBits,
		Costs:           env.DefaultCosts(),
		Trace:           rec,
	})
	return &deployment{sim: sim, cluster: c}
}

func (d *deployment) preload(dirs []string, filesPerDir int) { d.cluster.Preload(dirs, filesPerDir) }

// spawn starts fn as a process on client node i.
func (d *deployment) spawn(i int, fn func(p *env.Proc)) { d.cluster.SpawnClient(i, fn) }

func (d *deployment) fs(i int) fsapi.FS { return d.cluster.ClientFS(i) }

func (d *deployment) drain(p *env.Proc) { d.cluster.Drain(p) }

func (d *deployment) crashServer(i int) { d.cluster.CrashServer(i) }

func (d *deployment) recoverServer(i int) *env.Future { return d.cluster.RecoverServer(i) }

func (d *deployment) perServerOps() []uint64 { return d.cluster.PerServerOps() }

// counters returns the cluster's per-node counters as FillMetrics names them.
// Counters that stayed at zero are absent from the map.
func (d *deployment) counters() map[string]uint64 {
	reg := metrics.New()
	d.cluster.FillMetrics(reg)
	return reg.Snapshot()
}

// countersSince is counters minus an earlier reading (a restarted server
// starts again from zero; its counters are then taken as they are).
func (d *deployment) countersSince(before map[string]uint64) map[string]uint64 {
	return metrics.Delta(before, d.counters())
}

// endState is what the servers and switches hold once the run has drained.
type endState struct {
	walRecords     int
	kvEntries      int
	clogPending    int
	switchOccupied int
	ringVersion    uint64
}

func (d *deployment) endState() endState {
	var s endState
	for i := range d.cluster.Servers {
		s.walRecords += d.cluster.Servers[i].WAL().Len()
		s.kvEntries += d.cluster.Servers[i].KV().Len()
		s.clogPending += d.cluster.Servers[i].PendingClogEntries()
	}
	for i := range d.cluster.Switches {
		s.switchOccupied += d.cluster.Switches[i].Occupied()
	}
	s.ringVersion = d.cluster.Ring.Version()
	return s
}
