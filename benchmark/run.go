package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/fsapi"
	"switchfs/internal/trace"
)

// sample is one completed operation: its class and virtual latency.
type sample struct {
	op opKind
	ns int64
}

// hostSpan is a host-clock span the benchmark records around a call it makes
// into a layer directly. Times are nanoseconds since the process started.
type hostSpan struct {
	name   string
	parent string
	start  int64
	end    int64
}

var processStart = time.Now()

func hostNow() int64 { return int64(time.Since(processStart)) }

// rep is the outcome of one repetition: a fresh simulator, cluster and
// namespace, the whole load, the closing drain and the output oracle.
type rep struct {
	s *spec

	// Virtual clock: a pure function of (code, seed).
	samples    []sample // released once virtualValues has read them
	ops        int
	failed     int
	appRetries int // operations a worker re-issued after a fault-window error
	windowNs   int64
	drainNs    int64
	recoverNs  int64
	counters   map[string]uint64
	serverOps  []uint64
	end        endState
	delivered  uint64
	dropped    uint64
	workers    int

	// Host clock.
	deployS     float64
	preloadS    float64
	loadS       float64 // wall time of sim.Run() for load + drain
	recoverHost float64 // seconds
	mallocs     uint64
	allocBytes  uint64
	liveHeap    uint64

	spans      []trace.Span // traced repetitions only
	hostSpans  []hostSpan
	violations []string
}

func (r *rep) setupS() float64 { return r.deployS + r.preloadS }

func (r *rep) violate(format string, a ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, a...))
	}
}

func (r *rep) span(name, parent string, start int64) {
	r.hostSpans = append(r.hostSpans, hostSpan{name: name, parent: parent, start: start, end: hostNow()})
}

// apply issues one call and checks what came back. Any error is unplanned:
// the generators only plan operations that succeed.
func apply(p *env.Proc, fs fsapi.FS, c call) error {
	switch c.op {
	case opCreate:
		return fs.Create(p, c.path)
	case opDelete:
		return fs.Delete(p, c.path)
	case opMkdir:
		return fs.Mkdir(p, c.path)
	case opRmdir:
		return fs.Rmdir(p, c.path)
	case opStat, opOpen:
		var attr core.Attr
		var err error
		if c.op == opStat {
			attr, err = fs.Stat(p, c.path)
		} else {
			attr, err = fs.Open(p, c.path)
		}
		if err == nil && attr.Type != core.TypeRegular {
			err = fmt.Errorf("%s %s: type %v, want a regular file", opNames[c.op], c.path, attr.Type)
		}
		return err
	case opClose:
		return fs.Close(p, c.path)
	case opChmod:
		return fs.Chmod(p, c.path, 0o644)
	case opStatDir:
		attr, err := fs.StatDir(p, c.path)
		if err == nil && attr.Type != core.TypeDir {
			err = fmt.Errorf("statdir %s: type %v, want a directory", c.path, attr.Type)
		}
		return err
	case opReadDir:
		ents, err := fs.ReadDir(p, c.path)
		if err == nil && len(ents) == 0 {
			err = fmt.Errorf("readdir %s: empty listing of a preloaded directory", c.path)
		}
		return err
	case opRename:
		return fs.Rename(p, c.path, c.path2)
	case opDataRead:
		return fs.Data(p, c.shard, false, c.bytes)
	case opDataWrite:
		return fs.Data(p, c.shard, true, c.bytes)
	}
	return core.ErrInvalid
}

// maxAppRetries bounds how often a worker re-issues one operation in the
// crash workload before the operation counts as failed.
const maxAppRetries = 8

// applyUnderFault is apply for the crash workload, where the application,
// like any client of a store that fail-stops, re-issues an operation that
// timed out or met a recovering server. A create that was re-sent may find
// its own first delivery already committed; EEXIST on a name only this
// worker uses is that acknowledgement.
func applyUnderFault(p *env.Proc, fs fsapi.FS, c call, r *rep) error {
	err := apply(p, fs, c)
	for try := 0; try < maxAppRetries && (errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrUnavailable)); try++ {
		r.appRetries++
		err = apply(p, fs, c)
	}
	if c.op == opCreate && errors.Is(err, core.ErrExist) {
		return nil
	}
	return err
}

// buildNamespace stands the namespace up: through Preload, or (crash
// workload) through mkdir/create so that it is WAL-resident.
func buildNamespace(d *deployment, s *spec, ns *namespace) error {
	if !s.viaProtocol {
		d.preload(ns.dirs, ns.filesPerDir)
		return nil
	}
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := range ns.dirs {
		i := i
		d.spawn(i%numClients, func(p *env.Proc) {
			fs := d.fs(i % numClients)
			fail(fs.Mkdir(p, ns.dirs[i]))
			for f := 0; f < ns.filesPerDir; f++ {
				fail(fs.Create(p, join(ns.dirs[i], "f", f, -1)))
			}
		})
	}
	d.sim.Run()
	d.spawn(0, func(p *env.Proc) { d.drain(p) })
	d.sim.Run()
	return firstErr
}

// runRep executes one repetition of s. A non-nil rec traces it.
func runRep(s *spec, seed int64, rec *trace.Recorder) (*rep, error) {
	r := &rep{s: s}
	repStart := hostNow()

	t0 := hostNow()
	d := deploy(seed, s.dataNodes, rec)
	defer d.sim.Shutdown()
	r.deployS = float64(hostNow()-t0) / 1e9
	r.span("deploy", "rep", t0)

	ns := newNamespace(s)
	t0 = hostNow()
	if err := buildNamespace(d, s, ns); err != nil {
		return nil, fmt.Errorf("%s: building the namespace: %w", s.name, err)
	}
	r.preloadS = float64(hostNow()-t0) / 1e9
	r.span("preload", "rep", t0)

	r.samples = make([]sample, 0, s.totalOps())
	gens := make([]*generator, s.workers)
	for w := range gens {
		gens[w] = newGenerator(s, ns, seed, w)
	}

	// The load: a closed loop. Each worker issues its next operation when
	// the previous one returns; the drainer flushes deferred directory
	// updates as soon as the last worker is done, so the sustained window
	// charges them to the workload that deferred them.
	// Building a namespace through the protocol has already moved the
	// counters; the load is charged only with what it adds.
	start := d.sim.Now()
	base, baseEnd := d.counters(), d.endState()
	delivered0, dropped0 := d.sim.Delivered, d.sim.Dropped
	var drainedAt env.Time
	var loadEndHost, drainEndHost int64
	done := 0
	allDone := env.NewFuture()
	for w := 0; w < s.workers; w++ {
		w := w
		d.spawn(w%numClients, func(p *env.Proc) {
			fs := d.fs(w % numClients)
			g := gens[w]
			for i := 0; i < s.opsPerWorker; i++ {
				c := g.next()
				t := p.Now()
				var err error
				if s.crashAt > 0 {
					err = applyUnderFault(p, fs, c, r)
				} else {
					err = apply(p, fs, c)
				}
				r.samples = append(r.samples, sample{c.op, p.Now() - t})
				if err != nil {
					r.failed++
					r.violate("%s %s: %v", opNames[c.op], c.path, err)
				}
			}
			if done++; done == s.workers {
				allDone.Complete(nil)
			}
		})
	}
	d.spawn(0, func(p *env.Proc) {
		allDone.Wait(p)
		loadEndHost = hostNow()
		t := p.Now()
		d.drain(p)
		drainedAt = p.Now()
		r.drainNs = drainedAt - t
		drainEndHost = hostNow()
	})
	var recovered *env.Future
	if s.crashAt > 0 {
		d.sim.After(s.crashAt, func() { d.crashServer(1) })
		d.sim.After(s.recoverAt, func() {
			t := hostNow()
			recovered = d.recoverServer(1)
			d.spawn(0, func(p *env.Proc) {
				recovered.Wait(p)
				r.recoverHost = float64(hostNow()-t) / 1e9
				r.span("recover", "run", t)
			})
		})
	}

	// Every repetition enters the timed window from the same heap state.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 = hostNow()
	d.sim.Run()
	runEnd := hostNow()
	runtime.ReadMemStats(&after)
	r.loadS = float64(runEnd-t0) / 1e9
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.hostSpans = append(r.hostSpans,
		hostSpan{"run", "rep", t0, runEnd},
		hostSpan{"load", "run", t0, loadEndHost},
		hostSpan{"drain", "run", loadEndHost, drainEndHost})

	if done != s.workers || drainedAt == 0 {
		return nil, fmt.Errorf("%s: only %d/%d workers finished (simulation deadlock?)", s.name, done, s.workers)
	}
	r.ops = len(r.samples)
	r.windowNs = drainedAt - start
	r.delivered, r.dropped = d.sim.Delivered-delivered0, d.sim.Dropped-dropped0
	r.workers = d.sim.WorkerCount()

	// Live heap with the cluster still reachable: namespace, WAL and
	// invalidation lists — the state that only ever grows today.
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.liveHeap = after.HeapAlloc

	if recovered != nil {
		v, _ := recovered.Peek()
		switch v := v.(type) {
		case env.Duration:
			r.recoverNs = v
		case error:
			r.violate("recovery of server 1: %v", v)
		default:
			r.violate("recovery of server 1 did not complete")
		}
	}

	r.counters = d.countersSince(base)
	r.serverOps = d.perServerOps()
	if rec != nil {
		// Before the oracle's own reads add roots, and without the
		// operations that built the namespace.
		r.spans = spansSince(rec.Spans(), start)
	}

	t0 = hostNow()
	r.verify(d, ns, gens, baseEnd)
	r.span("verify", "rep", t0)
	r.hostSpans = append(r.hostSpans, hostSpan{"rep", "", repStart, hostNow()})
	runtime.KeepAlive(d)
	return r, nil
}

// verify is the output oracle, run after the drain. It also takes the end
// state: the drain pushes every change-log to its owner but leaves the
// fingerprints in the dirty set, and it is the next read of a directory that
// finds nothing left to aggregate and removes them — so the dirty set is
// read after the oracle has stat-ed every directory once.
func (r *rep) verify(d *deployment, ns *namespace, gens []*generator, baseEnd endState) {
	finished := false
	d.spawn(0, func(p *env.Proc) {
		fs := d.fs(0)
		// Deferred updates are visible on read: every directory's size is
		// what was preloaded plus what the workers created minus what they
		// deleted (§5.3).
		for i, dir := range ns.dirs {
			attr, err := fs.StatDir(p, dir)
			want := int64(ns.filesPerDir) + ns.delta[i]
			if err != nil {
				r.violate("statdir %s after the drain: %v", dir, err)
			} else if attr.Size != want {
				r.violate("statdir %s after the drain: size %d, want %d", dir, attr.Size, want)
			}
		}
		// Every create acknowledged under the crash is stat-able after
		// recovery.
		if r.s.crashAt > 0 {
			for _, g := range gens {
				for _, f := range g.files {
					if attr, err := fs.Stat(p, f.path); err != nil || attr.Type != core.TypeRegular {
						r.violate("stat %s after recovery: %v (type %v)", f.path, err, attr.Type)
					}
				}
			}
		}
		finished = true
	})
	d.sim.Run()
	if !finished {
		r.violate("the oracle's reads did not complete")
	}
	r.end = d.endState()
	r.end.walRecords -= baseEnd.walRecords
	if r.end.switchOccupied != 0 {
		r.violate("dirty set holds %d fingerprints after every directory was read, want 0", r.end.switchOccupied)
	}
	if r.end.clogPending != 0 {
		r.violate("%d change-log entries pending after the drain, want 0", r.end.clogPending)
	}
}

// spansSince drops the traces whose root operation started before t.
func spansSince(spans []trace.Span, t env.Time) []trace.Span {
	keep := make(map[uint64]bool)
	for _, s := range spans {
		if s.Parent == 0 && s.Start >= t {
			keep[s.Trace] = true
		}
	}
	out := spans[:0]
	for _, s := range spans {
		if keep[s.Trace] {
			out = append(out, s)
		}
	}
	return out
}
