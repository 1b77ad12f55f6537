package lincheck

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"switchfs/internal/chaos"
	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/wire"
	"switchfs/internal/workload"
)

// MixOptions sizes a closed-loop mix run.
type MixOptions struct {
	// Workers is the number of closed-loop clients. Each owns a private
	// directory and chunk set, keeping every directory's and chunk's history
	// sequential so Replay is exact.
	Workers int
	// Seed drives the mix (the simulation has its own seed).
	Seed int64
	// Hot, when set, is the server every worker directory's fingerprint
	// group starts on, and the mix turns mostly to statdir and readdir: all
	// directory-group traffic (statdir, readdir, change-log pushes,
	// aggregations) concentrates there — the hot spot the rebalance
	// scenarios need.
	Hot env.NodeID
}

// mixNames is each worker's entry-name pool: small, so creates, deletes and
// stats collide on the same names.
const mixNames = 12

// metaDraws counts the namespace operations at the head of mixKinds.
const metaDraws = 10

// mixKinds maps a mix draw to its operation: 4:2:2:1:1 create:delete:stat:
// statdir:readdir, then, with a data plane, two chunk writes and a read.
var mixKinds = [...]core.Op{
	core.OpCreate, core.OpCreate, core.OpCreate, core.OpCreate,
	core.OpDelete, core.OpDelete, core.OpStat, core.OpStat,
	core.OpStatDir, core.OpReadDir,
	core.OpWrite, core.OpWrite, core.OpRead,
}

// RunMix creates one private directory per worker, then drives the
// closed-loop mix across the plan on an already-built cluster through Run
// until the plan's horizon. Its audit reads every worker directory — statdir
// and readdir, which must agree once the cluster is drained — every name
// the run touched, and every chunk it wrote or read. The same cluster, seed
// and plan always record the same history; Replay checks it.
func RunMix(sim *env.Sim, c *cluster.Cluster, plan chaos.Plan, o MixOptions) RunResult {
	if err := plan.Validate(); err != nil {
		return RunResult{Issues: []string{err.Error()}}
	}

	dirs := make([]string, o.Workers)
	for w := range dirs {
		name := fmt.Sprintf("cw%03d", w)
		if o.Hot != 0 {
			// Scan candidate names until one's root-child fingerprint group
			// is owned by the hot server (deterministic: the initial ring is
			// a pure function of the geometry).
			for i := 0; ; i++ {
				cand := fmt.Sprintf("hw%03d-%d", w, i)
				if c.Ring.OwnerNode(core.FingerprintOf(core.RootDirID, cand)) == o.Hot {
					name = cand
					break
				}
			}
		}
		dirs[w] = "/" + name
	}
	var preloadErr error
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for _, d := range dirs {
			if err := cl.Mkdir(p, d, 0); err != nil {
				preloadErr = fmt.Errorf("preloading %s: %w", d, err)
				return
			}
		}
	})
	if preloadErr != nil {
		// A dirty cluster (e.g. RunMix called twice on it) is a caller
		// error, reported like every other harness failure.
		return RunResult{Issues: []string{preloadErr.Error()}}
	}

	base := sim.Now()
	draws := len(mixKinds)
	if len(c.DataNodes) == 0 {
		draws = metaDraws
	}
	rnds := make([]*rand.Rand, o.Workers)
	for w := range rnds {
		rnds[w] = rand.New(rand.NewSource(o.Seed + int64(w)*6151))
	}
	next := func(p *env.Proc, w int) (workload.Op, bool) {
		if p.Now()-base >= plan.Horizon {
			return workload.Op{}, false
		}
		rnd := rnds[w]
		name := fmt.Sprintf("f%d", rnd.Intn(mixNames))
		k := rnd.Intn(draws)
		if o.Hot != 0 && k < metaDraws {
			// 3:1:3:3 create:delete:statdir:readdir — statdir and readdir
			// route to the worker directory's owner, the heat signal the
			// balancer acts on.
			k = [metaDraws]int{0, 0, 0, 4, 8, 8, 8, 9, 9, 9}[k]
		}
		switch kind := mixKinds[k]; kind {
		case core.OpStatDir, core.OpReadDir:
			return workload.Op{Kind: kind, Path: dirs[w]}, true
		case core.OpWrite, core.OpRead:
			chunk := wire.ChunkKey{File: 0xD0000000 + uint32(w), Stripe: uint32(rnd.Intn(4))}
			return workload.Op{Kind: kind, Chunk: chunk}, true
		default:
			return workload.Op{Kind: kind, Path: dirs[w] + "/" + name}, true
		}
	}
	audit := func(h History) []workload.Op {
		paths := make(map[string]bool)
		chunks := make(map[wire.ChunkKey]bool)
		for _, e := range h {
			switch e.Op.Kind {
			case core.OpCreate, core.OpDelete, core.OpStat:
				paths[e.Op.Path] = true
			case core.OpWrite, core.OpRead:
				chunks[e.Op.Chunk] = true
			}
		}
		touched := slices.Sorted(maps.Keys(paths))
		var reads []workload.Op
		for _, dir := range slices.Sorted(slices.Values(dirs)) {
			reads = append(reads, workload.Op{Kind: core.OpStatDir, Path: dir}, workload.Op{Kind: core.OpReadDir, Path: dir})
			for _, path := range touched {
				if strings.HasPrefix(path, dir+"/") {
					reads = append(reads, workload.Op{Kind: core.OpStat, Path: path})
				}
			}
		}
		for _, chunk := range slices.SortedFunc(maps.Keys(chunks), func(a, b wire.ChunkKey) int {
			return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Stripe, b.Stripe))
		}) {
			reads = append(reads, workload.Op{Kind: core.OpRead, Chunk: chunk})
		}
		return reads
	}

	res := Run(sim, c, &plan, Source{Clients: o.Workers, Next: next, Audit: audit})
	for i := res.Loaded; i+1 < len(res.History); i++ {
		sd, rd := res.History[i], res.History[i+1]
		if sd.Op.Kind == core.OpStatDir && rd.Op.Kind == core.OpReadDir && sd.Out.Err == nil && rd.Out.Err == nil &&
			sd.Out.Attr.Size != int64(len(rd.Out.Entries)) {
			res.Issues = append(res.Issues,
				fmt.Sprintf("%s: statdir size %d != %d listed entries", sd.Op.Path, sd.Out.Attr.Size, len(rd.Out.Entries)))
		}
	}
	return res
}
