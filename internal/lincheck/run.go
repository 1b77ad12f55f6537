package lincheck

import (
	"errors"
	"fmt"

	"switchfs/internal/chaos"
	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/datanode"
	"switchfs/internal/env"
	"switchfs/internal/stats"
	"switchfs/internal/workload"
)

// Geometry is the deployment the concurrent runners stand up (the plan
// catalog is authored against it).
var Geometry = chaos.Geometry{Servers: 4, Clients: 3, Switches: 1}

// Plans is the fault catalog of a lincheck sweep: the §5.4 recovery stories
// reused from chaos.BuiltinPlans (including reconfig-crash — live bulk
// migration racing a server crash), a deliberate crash of the rename/link
// coordinator (server 0 — the scenario that exercises the 2PC termination
// protocol), a rebalance-racing-crash plan (balancer passes migrating
// groups through gate-and-drain while a server fail-stops — no op may be
// lost or double-applied across a migration), and the seed's random plan.
func Plans(seed int64) []chaos.Plan {
	var plans []chaos.Plan
	for _, name := range []string{"server-crash", "switch-reboot", "flaky-links", "reconfig-crash"} {
		p, ok := chaos.BuiltinPlan(Geometry, name)
		if !ok {
			panic("lincheck: missing builtin plan " + name)
		}
		plans = append(plans, p)
	}
	ms := env.Millisecond
	plans = append(plans, chaos.Plan{
		Name:    "coordinator-crash",
		Desc:    "fail-stop the rename/link coordinator mid-plan (2PC termination)",
		Horizon: 8 * ms,
		Events: []chaos.Event{
			chaos.CrashServer(1*ms, 0),
			chaos.RecoverServer(4*ms, 0),
		},
	})
	plans = append(plans, chaos.Plan{
		Name:    "rebalance-crash",
		Desc:    "balancer passes migrating groups while a server fail-stops (§5.5)",
		Horizon: 10 * ms,
		Events: []chaos.Event{
			chaos.RebalancePass(1 * ms),
			chaos.RebalancePass(2 * ms),
			chaos.CrashServer(2500*env.Microsecond, 1),
			chaos.RebalancePass(4 * ms),
			chaos.RecoverServer(6*ms, 1),
			chaos.RebalancePass(7 * ms),
		},
	})
	return append(plans, chaos.RandomPlan(seed, Geometry, 8*ms))
}

// Source drives the clients of one checked run.
type Source struct {
	// Clients is the number of client op loops: loop w issues through
	// c.Client(w); the audit reads through c.Client(0), recorded as client
	// Clients.
	Clients int
	// Next returns client w's next operation, or false when w is done. It
	// may sleep p first: that is how a source paces its clients.
	Next func(p *env.Proc, w int) (workload.Op, bool)
	// Audit returns the reads to issue once the cluster is healed and
	// drained, given the clients' history.
	Audit func(History) []workload.Op
}

// windows is the number of availability windows (RunResult.Windows) a
// plan's horizon is split into.
const windows = 8

// RunResult is a recorded checked run.
type RunResult struct {
	History History
	// Loaded is where the audit begins: History[:Loaded] holds the clients'
	// operations (and any data-wipe marker), the rest the audit reads.
	Loaded int
	// Issues are harness-level failures outside the oracles: clients whose
	// operations never returned (a wedged protocol path), recoveries that
	// did not complete, unclean plans, change-log entries surviving the
	// final drain.
	Issues []string
	// Packets is the run's delivered-packet count (figure counters).
	Packets uint64
	// Parked counts the client requests the servers standing at the end of
	// the run held while they recovered (crash walks: proof a crash instant
	// met parked requests).
	Parked uint64
	// Flushes counts the transaction pre-flushes that found their name's
	// deferred update still pending (proof a rename met the push-idle window).
	Flushes uint64
	// Start is the instant the clients started. Across a plan, Samples
	// holds the cumulative packet counters at each window boundary
	// (windows+1 of them), Span the window length.
	Start   env.Time
	Span    env.Duration
	Samples []stats.Counters
}

// Window is one bucket of a run's availability/latency timeline.
type Window struct {
	// Start is the window's offset from the run start.
	Start env.Duration
	// Ok counts client operations completing in the window with a definite
	// outcome; Timeouts those whose retry budget expired (ErrTimeout) — the
	// unavailability signal.
	Ok, Timeouts int
	// P99 is the 99th-percentile latency in nanoseconds of the operations
	// completing in the window.
	P99 float64
	// Counters carries the window's operation and packet counts.
	Counters stats.Counters
}

// Windows buckets the clients' operations by completion instant into the
// run's sampler windows (the last one also takes everything completing after
// the horizon). It is nil for a fault-free run, which has no samplers.
func (r RunResult) Windows() []Window {
	n := len(r.Samples) - 1
	if n <= 0 {
		return nil
	}
	ws := make([]Window, n)
	hists := make([]stats.Hist, n)
	for _, e := range r.History[:r.Loaded] {
		if e.Wipe {
			continue
		}
		b := min(max(int((e.Ret-r.Start)/r.Span), 0), n-1)
		if errors.Is(e.Out.Err, core.ErrTimeout) {
			ws[b].Timeouts++
		} else {
			ws[b].Ok++
		}
		hists[b].Add(float64(e.Ret - e.Call))
	}
	for b := range ws {
		ws[b].Start = r.Span * env.Duration(b)
		ws[b].P99 = hists[b].Percentile(0.99)
		ws[b].Counters = r.Samples[b+1].Sub(r.Samples[b])
		ws[b].Counters.Ops = uint64(ws[b].Ok + ws[b].Timeouts)
		ws[b].Counters.Errs = uint64(ws[b].Timeouts)
	}
	return ws
}

// ambiguousErr classifies client-visible errors whose effect is unknown:
// the operation (or a retransmission still queued server-side) may land
// late, land twice, or never have executed.
func ambiguousErr(err error) bool {
	return errors.Is(err, core.ErrTimeout) ||
		errors.Is(err, core.ErrUnavailable) ||
		errors.Is(err, core.ErrRetry) ||
		errors.Is(err, core.ErrStaleCache)
}

// chunkBytes is the size of every chunk write a checked run issues.
const chunkBytes = 4096

// applyClient executes one op through the raw client (the session surface
// with resent reporting), returning the observation. Chunk operations go to
// the chunk's primary data node.
func applyClient(p *env.Proc, c *cluster.Cluster, cl *client.Client, op workload.Op) (workload.Outcome, bool) {
	var out workload.Outcome
	var resent bool
	switch op.Kind {
	case core.OpCreate:
		resent, out.Err = cl.CreateR(p, op.Path, op.Perm)
	case core.OpMkdir:
		resent, out.Err = cl.MkdirR(p, op.Path, op.Perm)
	case core.OpDelete:
		resent, out.Err = cl.DeleteR(p, op.Path)
	case core.OpRmdir:
		resent, out.Err = cl.RmdirR(p, op.Path)
	case core.OpStat:
		out.Attr, out.Err = cl.Stat(p, op.Path)
	case core.OpOpen:
		out.Attr, _, out.Err = cl.Open(p, op.Path)
	case core.OpClose:
		out.Err = cl.Close(p, op.Path)
	case core.OpChmod:
		resent, out.Err = cl.ChmodR(p, op.Path, op.Perm)
	case core.OpStatDir:
		out.Attr, out.Err = cl.StatDir(p, op.Path)
	case core.OpReadDir:
		var es []core.DirEntry
		es, out.Err = cl.ReadDir(p, op.Path)
		if out.Err == nil {
			out.Entries = workload.SortEntries(es)
		}
	case core.OpRename:
		resent, out.Err = cl.RenameR(p, op.Path, op.Path2)
	case core.OpLink:
		resent, out.Err = cl.LinkR(p, op.Path, op.Path2)
	case core.OpWrite:
		node := c.DataNodes[datanode.PrimarySlot(op.Chunk, len(c.DataNodes))]
		out.Version, out.Err = cl.WriteChunk(p, node, op.Chunk, chunkBytes)
	case core.OpRead:
		node := c.DataNodes[datanode.PrimarySlot(op.Chunk, len(c.DataNodes))]
		out.Version, _, out.Err = cl.ReadChunk(p, node, op.Chunk)
	default:
		out.Err = core.ErrInvalid
	}
	return out, resent
}

// Run drives src's clients on an already-built cluster — fault-free, or
// across plan — recording one history, then ends the way every checked run
// ends: heal and recover whatever the plan left behind, report live servers
// not serving and clients that never finished, drain deferred work and
// require that no server holds a change-log entry, and append src's audit
// reads to the history. Boundary
// samplers are queued first, then the plan's timers, then the clients, so
// same-instant events keep that order. The same cluster, plan and source
// always record the same history.
func Run(sim *env.Sim, c *cluster.Cluster, plan *chaos.Plan, src Source) RunResult {
	res := RunResult{Start: sim.Now()}
	observe := func(p *env.Proc, w int, cl *client.Client, op workload.Op) {
		t0 := p.Now()
		out, resent := applyClient(p, c, cl, op)
		res.History = append(res.History, Event{Client: w, Op: op, Out: out, Call: t0, Ret: p.Now(),
			TimedOut: ambiguousErr(out.Err), Resent: resent})
	}
	snap := func() stats.Counters {
		return stats.Counters{PacketsDelivered: sim.Delivered, PacketsDropped: sim.Dropped}
	}
	sampled := 1 // the next boundary sampler to fire; they fire in order
	var inj *chaos.Injector
	if plan != nil {
		res.Span = plan.Horizon / windows
		if res.Span <= 0 {
			res.Span = env.Millisecond
		}
		res.Samples = make([]stats.Counters, windows+1)
		res.Samples[0] = snap()
		for w := 1; w < windows; w++ {
			sim.After(res.Span*env.Duration(w), func() { res.Samples[w], sampled = snap(), w+1 })
		}
		inj = chaos.Apply(sim, c, *plan)
		if len(c.DataNodes) > 0 {
			// A data-node crash that leaves >= r data nodes down may wipe a
			// chunk's whole replica set: the marker, queued behind the
			// plan's own timer, tells Replay to stop pinning versions.
			wiped := false
			for _, ev := range plan.Events {
				if ev.Kind != chaos.KindCrashDataNode {
					continue
				}
				sim.After(ev.At, func() {
					if !wiped && c.DataNodesDown() >= c.Opts.DataReplication {
						wiped = true
						res.History = append(res.History, Event{Client: -1, Call: sim.Now(), Ret: sim.Now(), Wipe: true})
					}
				})
			}
		}
	}

	// Under the simulator exactly one process runs at a time, so the
	// history is totally ordered: completion order.
	finished := make([]bool, src.Clients)
	for w := range finished {
		cl := c.Client(w)
		sim.Spawn(cl.ID(), func(p *env.Proc) {
			for op, ok := src.Next(p, w); ok; op, ok = src.Next(p, w) {
				observe(p, w, cl, op)
			}
			finished[w] = true
		})
	}
	sim.Run()
	if res.Samples != nil {
		// Samplers that never fired (a client stopping the simulation early
		// leaves trailing timers queued) inherit the final totals.
		for final := snap(); sampled <= windows; sampled++ {
			res.Samples[sampled] = final
		}
	}

	if inj != nil {
		res.Issues = append(res.Issues, inj.HealAndRecover(sim)...)
	}
	// A healed cluster serves on every live server. The drain's flushes turn
	// serving back on, so this is read before it: a run that leaves a server
	// refusing requests must not pass.
	for i, srv := range c.Servers {
		if !srv.Node().Down() && !srv.Serving() {
			res.Issues = append(res.Issues, fmt.Sprintf("server %d is up but not serving after the heal", i))
		}
	}
	for w, ok := range finished {
		if !ok {
			res.Issues = append(res.Issues,
				fmt.Sprintf("client %d never completed its program (wedged operation)", w))
		}
	}

	// A healed, drained cluster holds no pending change-log entries. The
	// count is read in the instant Drain returns — once the simulation has
	// run quiet, retransmissions that landed later would hide a drain that
	// ended early.
	cl := c.Client(0)
	drained := false
	sim.Spawn(cl.ID(), func(p *env.Proc) {
		c.Drain(p)
		for i, srv := range c.Servers {
			if n := srv.PendingClogEntries(); n > 0 {
				res.Issues = append(res.Issues,
					fmt.Sprintf("server %d holds %d change-log entries after heal+drain", i, n))
			}
		}
		drained = true
	})
	sim.Run()
	if !drained {
		res.Issues = append(res.Issues, "final drain never completed (wedged flush)")
	}

	// The audit reads back through the normal read path (leftover dirty
	// fingerprints force real aggregations here): lost acknowledged writes,
	// resurrections and wrong trees all surface as observations no oracle
	// accepts.
	res.Loaded = len(res.History)
	reads := src.Audit(res.History)
	audited := false
	sim.Spawn(cl.ID(), func(p *env.Proc) {
		for _, op := range reads {
			observe(p, src.Clients, cl, op)
		}
		audited = true
	})
	sim.Run()
	if !audited {
		res.Issues = append(res.Issues, "post-run audit never completed (wedged read path)")
	}
	res.Packets = sim.Delivered
	for _, srv := range c.Servers {
		res.Parked += srv.Stats.Parked
		res.Flushes += srv.Stats.RenameFlushes
	}
	return res
}

// RunConcurrent executes the program's clients concurrently against a fresh
// SwitchFS deployment — fault-free, or across a chaos plan — through Run.
// Across a plan each client's ops are paced over the horizon, so faults
// land between (and inside) operations instead of after the last one. The
// audit reads stat + readdir over the whole path universe, then
// prog.Audit. Same seed, program and plan always produce an identical
// history.
func RunConcurrent(seed int64, prog Program, plan *chaos.Plan) RunResult {
	sim := env.NewSim(seed)
	defer sim.Shutdown()
	opts := cluster.Options{
		Servers:         4,
		Clients:         len(prog.Ops),
		Switches:        1,
		SwitchIndexBits: 12,
		Costs:           env.DefaultCosts(),
	}
	if plan != nil {
		// Shrink the retry budget so gave-up operations — the ambiguity the
		// checker models — happen inside the plan's horizon.
		opts.RetryTimeout = 500 * env.Microsecond
		opts.ClientMaxRetries = 6
	}
	c := cluster.New(sim, opts)

	issued := make([]int, len(prog.Ops))
	return Run(sim, c, plan, Source{
		Clients: len(prog.Ops),
		Next: func(p *env.Proc, w int) (workload.Op, bool) {
			ops := prog.Ops[w]
			if issued[w] == len(ops) {
				return workload.Op{}, false
			}
			if plan != nil {
				if spread := plan.Horizon / env.Duration(len(ops)+1); spread > 0 {
					p.Sleep(spread)
				}
			}
			issued[w]++
			return ops[issued[w]-1], true
		},
		Audit: func(History) []workload.Op {
			var reads []workload.Op
			for _, path := range append([]string{"/"}, prog.Paths...) {
				for _, kind := range []core.Op{core.OpStat, core.OpReadDir} {
					if path == "/" && kind == core.OpStat {
						kind = core.OpStatDir // the root has no parent to stat through
					}
					reads = append(reads, workload.Op{Kind: kind, Path: path})
				}
			}
			return append(reads, prog.Audit...)
		},
	})
}

// Report is the outcome of one checked concurrent run.
type Report struct {
	Run   RunResult
	Check CheckResult
	// Counterexample is the minimized failing subhistory (nil when clean).
	Counterexample History
}

// Failed reports whether the run violated linearizability or wedged.
func (r *Report) Failed() bool {
	return !r.Check.Ok || len(r.Run.Issues) > 0
}

// CheckConcurrent runs the program, searches the history, and minimizes any
// counterexample.
func CheckConcurrent(seed int64, prog Program, plan *chaos.Plan) *Report {
	rep := &Report{Run: RunConcurrent(seed, prog, plan)}
	rep.Check = Check(rep.Run.History)
	if !rep.Check.Ok {
		rep.Counterexample = Minimize(rep.Run.History)
	}
	return rep
}
