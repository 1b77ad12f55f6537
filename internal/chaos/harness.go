package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/stats"
	"switchfs/internal/wire"
)

// Options sizes a harness run.
type Options struct {
	// Workers is the number of closed-loop clients driving load across the
	// plan (default 8). Each owns a private directory, keeping per-directory
	// histories sequential so the oracle is exact.
	Workers int
	// Windows is the number of availability/latency buckets the horizon is
	// split into (default 8).
	Windows int
	// NamesPerDir is each worker's entry-name pool; a small pool makes
	// creates, deletes and stats collide on the same names (default 12).
	NamesPerDir int
	// Seed drives the workload mix (the simulation has its own seed).
	Seed int64
	// Skewed picks every worker directory's name so its fingerprint group
	// starts on server SkewServer: all directory-group traffic (statdir,
	// readdir, change-log pushes, aggregations) concentrates there — the
	// hot-spot workload the rebalance scenarios need. Per-directory
	// histories stay sequential, so the oracle stays exact.
	Skewed     bool
	SkewServer int
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Windows <= 0 {
		o.Windows = 8
	}
	if o.NamesPerDir <= 0 {
		o.NamesPerDir = 12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// WindowRow is one bucket of the availability/latency timeline.
type WindowRow struct {
	// Start is the bucket's offset from the plan start.
	Start env.Duration
	// Ok counts operations completing with a definite outcome; Errs counts
	// operations whose retry budget expired (ErrTimeout) — the
	// unavailability signal.
	Ok   int
	Errs int
	// P99 is the 99th-percentile operation latency in nanoseconds
	// (operations completing in this bucket).
	P99 float64
	// Counters carries the bucket's deterministic op and packet counts.
	Counters stats.Counters
}

// Report is the outcome of one plan run.
type Report struct {
	Plan    Plan
	Rows    []WindowRow
	Checker *Checker
	// Issues are harness-level failures outside the oracle: recoveries that
	// never completed, change-log entries surviving the final drain,
	// entry-list/size disagreement.
	Issues []string
}

// Failed reports whether the run violated any invariant.
func (r *Report) Failed() bool {
	return len(r.Issues) > 0 || len(r.Checker.Violations()) > 0
}

// Availability returns ok/(ok+errs) over the whole run, in percent.
func (r *Report) Availability() float64 {
	ok, errs := 0, 0
	for _, w := range r.Rows {
		ok += w.Ok
		errs += w.Errs
	}
	if ok+errs == 0 {
		return 100
	}
	return 100 * float64(ok) / float64(ok+errs)
}

// Run drives a closed-loop workload across the plan on an already-built
// cluster, then heals, drains, and audits. The same cluster/seed/plan always
// produces an identical Report (rows, counters, violations).
func Run(sim *env.Sim, c *cluster.Cluster, plan Plan, o Options) *Report {
	o.defaults()
	rep := &Report{Plan: plan, Checker: NewChecker()}
	if err := plan.Validate(); err != nil {
		rep.Issues = append(rep.Issues, err.Error())
		return rep
	}

	// Pre-plan setup: every worker's private directory exists and is known
	// to the oracle before any fault fires.
	dirs := make([]string, o.Workers)
	for w := range dirs {
		name := fmt.Sprintf("cw%03d", w)
		if o.Skewed {
			// Scan candidate names until one's root-child fingerprint group
			// is owned by the skew target (deterministic: the initial ring
			// is a pure function of the geometry).
			for i := 0; ; i++ {
				cand := fmt.Sprintf("hw%03d-%d", w, i)
				if int(c.Ring.OwnerOfFile(core.RootDirID, cand)) == o.SkewServer {
					name = cand
					break
				}
			}
		}
		dirs[w] = "/" + name
		rep.Checker.RegisterDir(dirs[w])
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
		// A dirty cluster (e.g. Run called twice on it) is a caller error,
		// reported like every other harness failure.
		rep.Issues = append(rep.Issues, preloadErr.Error())
		return rep
	}

	base := sim.Now()
	winDur := plan.Horizon / env.Duration(o.Windows)
	if winDur <= 0 {
		winDur = env.Millisecond
	}

	// Packet counters sampled at each bucket boundary (cumulative).
	snap := func() stats.Counters {
		return stats.Counters{PacketsDelivered: sim.Delivered, PacketsDropped: sim.Dropped}
	}
	samples := make([]stats.Counters, o.Windows+1)
	fired := make([]bool, o.Windows+1)
	samples[0] = snap()
	fired[0] = true
	for w := 1; w < o.Windows; w++ {
		w := w
		sim.After(winDur*env.Duration(w), func() { samples[w], fired[w] = snap(), true })
	}

	inj := Apply(sim, c, plan)
	// Data-node geometry: workers exercise the data plane when the cluster
	// has one. A crash storm taking >= r data nodes down at once may wipe a
	// chunk's whole replica set — the oracle must stop pinning versions.
	dataNodes := len(c.DataNodes)
	if dataNodes > 0 {
		inj.OnDataWipe = rep.Checker.TaintAllData
	}

	// Closed-loop workers. Completion order is the oracle's replay order;
	// under Sim exactly one process runs at a time, so the shared recorders
	// are totally ordered.
	oks := make([]int, o.Windows)
	errs := make([]int, o.Windows)
	hists := make([]stats.Hist, o.Windows)
	bucketOf := func(t env.Time) int {
		b := int((t - base) / winDur)
		if b < 0 {
			b = 0
		}
		if b >= o.Windows {
			b = o.Windows - 1
		}
		return b
	}
	record := func(t0, t1 env.Time, err error) {
		b := bucketOf(t1)
		if errors.Is(err, core.ErrTimeout) {
			errs[b]++
		} else {
			oks[b]++
		}
		hists[b].Add(float64(t1 - t0))
	}
	for w := 0; w < o.Workers; w++ {
		w := w
		dir := dirs[w]
		cl := c.Client(w)
		rnd := rand.New(rand.NewSource(o.Seed + int64(w)*6151))
		// Each worker owns a private chunk set so per-chunk write histories
		// are sequential and the data oracle is exact.
		chunkFile := uint32(0xD0000000) + uint32(w)
		opSpace := 10
		if dataNodes > 0 {
			opSpace = 13 // cases 10..12: chunk write ×2, chunk read
		}
		sim.Spawn(cl.ID(), func(p *env.Proc) {
			for p.Now()-base < plan.Horizon {
				name := fmt.Sprintf("f%d", rnd.Intn(o.NamesPerDir))
				path := dir + "/" + name
				t0 := p.Now()
				op := rnd.Intn(opSpace)
				if o.Skewed && op < 10 {
					// Skewed mix: mostly directory-group operations (statdir,
					// readdir), which route to the worker dir's owner — the
					// heat signal the balancer acts on. 3:1:3:3
					// create:delete:statdir:readdir.
					switch {
					case op <= 2:
						op = 0 // create
					case op == 3:
						op = 4 // delete
					case op <= 6:
						op = 8 // statdir
					default:
						op = 9 // readdir
					}
				}
				if op >= 10 {
					chunk := wire.ChunkKey{File: chunkFile, Stripe: uint32(rnd.Intn(4))}
					node := c.DataNodes[datanode.PrimarySlot(chunk, dataNodes)]
					if op < 12 {
						ver, err := cl.WriteChunk(p, node, chunk, 4096)
						record(t0, p.Now(), err)
						rep.Checker.ApplyDataWrite(chunk, ver, err)
					} else {
						ver, _, err := cl.ReadChunk(p, node, chunk)
						record(t0, p.Now(), err)
						rep.Checker.ApplyDataRead(chunk, ver, err)
					}
					continue
				}
				switch op {
				case 0, 1, 2, 3:
					resent, err := cl.CreateR(p, path, 0)
					record(t0, p.Now(), err)
					rep.Checker.Apply(core.OpCreate, dir, name, resent, err)
				case 4, 5:
					resent, err := cl.DeleteR(p, path)
					record(t0, p.Now(), err)
					rep.Checker.Apply(core.OpDelete, dir, name, resent, err)
				case 6, 7:
					_, err := cl.Stat(p, path)
					record(t0, p.Now(), err)
					rep.Checker.Apply(core.OpStat, dir, name, false, err)
				case 8:
					attr, err := cl.StatDir(p, dir)
					record(t0, p.Now(), err)
					rep.Checker.ApplyStatDir(dir, attr.Size, err)
				default:
					es, err := cl.ReadDir(p, dir)
					record(t0, p.Now(), err)
					names := make([]string, len(es))
					for i, e := range es {
						names[i] = e.Name
					}
					rep.Checker.ApplyReadDir(dir, names, err)
				}
			}
		})
	}
	sim.Run()
	samples[o.Windows] = snap()
	// Boundary samplers that never fired (a caller stopping the simulation
	// early would leave trailing timers queued) inherit the final totals.
	for w := 1; w < o.Windows; w++ {
		if !fired[w] {
			samples[w] = samples[o.Windows]
		}
	}

	// Heal whatever the plan left behind and bring every server back before
	// the audit (validated plans recover their own crashes; this is defense
	// against hand-written ones).
	rep.Issues = append(rep.Issues, inj.HealAndRecover(sim)...)

	// Drain deferred work, then check change-log/dirty-set consistency: a
	// healed, drained cluster holds no pending change-log entries. The count is
	// read in the instant Drain returns — once the simulation has run quiet,
	// retransmissions that landed later would hide a drain that ended early.
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		c.Drain(p)
		for i, srv := range c.Servers {
			if n := srv.PendingClogEntries(); n > 0 {
				rep.Issues = append(rep.Issues,
					fmt.Sprintf("server %d holds %d change-log entries after heal+drain", i, n))
			}
		}
	})

	// Final audit through the normal read path (leftover dirty fingerprints
	// force real aggregations here).
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for _, dir := range rep.Checker.Dirs() {
			attr, err := cl.StatDir(p, dir)
			rep.Checker.ApplyStatDir(dir, attr.Size, err)
			es, rerr := cl.ReadDir(p, dir)
			names := make([]string, len(es))
			for i, e := range es {
				names[i] = e.Name
			}
			rep.Checker.ApplyReadDir(dir, names, rerr)
			if err == nil && rerr == nil && attr.Size != int64(len(es)) {
				rep.Issues = append(rep.Issues,
					fmt.Sprintf("%s: statdir size %d != %d listed entries", dir, attr.Size, len(es)))
			}
			for _, name := range rep.Checker.Names(dir) {
				_, serr := cl.Stat(p, dir+"/"+name)
				rep.Checker.Apply(core.OpStat, dir, name, false, serr)
			}
		}
		// Data audit: with every data node healed and re-replicated, each
		// chunk's acknowledged version must still be readable — lost acked
		// content under ≤ r−1 failures is a violation.
		for _, chunk := range rep.Checker.Chunks() {
			node := c.DataNodes[datanode.PrimarySlot(chunk, len(c.DataNodes))]
			ver, _, err := cl.ReadChunk(p, node, chunk)
			rep.Checker.ApplyDataRead(chunk, ver, err)
		}
	})

	// Assemble the timeline.
	for w := 0; w < o.Windows; w++ {
		ctr := samples[w+1].Sub(samples[w])
		ctr.Ops = uint64(oks[w] + errs[w])
		ctr.Errs = uint64(errs[w])
		rep.Rows = append(rep.Rows, WindowRow{
			Start:    winDur * env.Duration(w),
			Ok:       oks[w],
			Errs:     errs[w],
			P99:      hists[w].Percentile(0.99),
			Counters: ctr,
		})
	}
	return rep
}
