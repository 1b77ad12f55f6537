package lincheck

import (
	"errors"
	"fmt"

	"switchfs/internal/chaos"
	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
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

// RunResult is a recorded concurrent execution.
type RunResult struct {
	History History
	// Issues are harness-level failures outside the checker: clients whose
	// operations never returned (a wedged protocol path), recoveries that
	// did not complete, unclean plans.
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

// applyClient executes one op through the raw client (the session surface
// with resent reporting), returning the observation.
func applyClient(p *env.Proc, cl *client.Client, op Op) (Outcome, bool) {
	var out Outcome
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
			out.Entries = sortEntries(es)
		}
	case core.OpRename:
		resent, out.Err = cl.RenameR(p, op.Path, op.Path2)
	case core.OpLink:
		resent, out.Err = cl.LinkR(p, op.Path, op.Path2)
	default:
		out.Err = core.ErrInvalid
	}
	return out, resent
}

// RunConcurrent executes the program's clients concurrently against a fresh
// SwitchFS deployment — fault-free, or across a chaos plan — then heals,
// recovers, and appends a sequential post-run audit (stat + readdir over the
// whole path universe) to the history. Same seed, program and plan always
// produce an identical history.
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

	var res RunResult
	rec := NewRecorder()
	finished := make([]bool, len(prog.Ops))
	for w := range prog.Ops {
		w := w
		ops := prog.Ops[w]
		cl := c.Client(w)
		var spread env.Duration
		if plan != nil && len(ops) > 0 {
			// Pace the program across the horizon so faults land between
			// (and inside) operations instead of after the last one.
			spread = plan.Horizon / env.Duration(len(ops)+1)
		}
		sim.Spawn(cl.ID(), func(p *env.Proc) {
			for _, op := range ops {
				if spread > 0 {
					p.Sleep(spread)
				}
				t0 := p.Now()
				out, resent := applyClient(p, cl, op)
				ev := Event{Client: w, Op: op, Out: out, Call: t0, Ret: p.Now(), Resent: resent}
				if ambiguousErr(out.Err) {
					ev.TimedOut = true
					ev.Out = Outcome{Err: core.ErrTimeout}
				}
				rec.Record(ev)
			}
			finished[w] = true
		})
	}
	var inj *chaos.Injector
	if plan != nil {
		inj = chaos.Apply(sim, c, *plan)
	}
	sim.Run()
	if inj != nil {
		res.Issues = append(res.Issues, inj.HealAndRecover(sim)...)
	}
	for w, ok := range finished {
		if !ok {
			res.Issues = append(res.Issues,
				fmt.Sprintf("client %d never completed its program (wedged operation)", w))
		}
	}

	// Post-run audit: with the cluster healed and recovered, read the whole
	// universe back sequentially. Lost acknowledged writes, resurrections
	// and wrong trees all surface here as non-linearizable observations.
	auditDone := false
	auditClient := len(prog.Ops)
	cl := c.Client(0)
	sim.Spawn(cl.ID(), func(p *env.Proc) {
		read := func(op Op) {
			t0 := p.Now()
			out, _ := applyClient(p, cl, op)
			ev := Event{Client: auditClient, Op: op, Out: out, Call: t0, Ret: p.Now()}
			if ambiguousErr(out.Err) {
				ev.TimedOut = true
				ev.Out = Outcome{Err: core.ErrTimeout}
			}
			rec.Record(ev)
		}
		paths := append([]string{"/"}, prog.Paths...)
		for _, path := range paths {
			for _, kind := range []core.Op{core.OpStat, core.OpReadDir} {
				if path == "/" && kind == core.OpStat {
					kind = core.OpStatDir // the root has no parent to stat through
				}
				read(Op{Kind: kind, Path: path})
			}
		}
		for _, op := range prog.Audit {
			read(op)
		}
		auditDone = true
	})
	sim.Run()
	if !auditDone {
		res.Issues = append(res.Issues, "post-run audit never completed (wedged read path)")
	}
	res.History = rec.History()
	res.Packets = sim.Delivered
	for _, srv := range c.Servers {
		res.Parked += srv.Stats.Parked
		res.Flushes += srv.Stats.RenameFlushes
	}
	return res
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
