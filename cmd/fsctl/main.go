// Command fsctl runs an interactive-style script of filesystem operations
// against an in-process SwitchFS cluster on the deterministic simulator
// (-seed picks the execution) — a smoke-testing and exploration tool.
//
// Usage:
//
//	fsctl -servers 8 'mkdir /a' 'create /a/f' 'ls /a' 'statdir /a' 'rm /a/f'
//
// Commands: mkdir, rmdir, create, rm, stat, statdir, ls, mv, ln, chmod,
// open, read, write.
//
// The chaos subcommand inspects the fault-injection plan catalog instead of
// running filesystem commands:
//
//	fsctl chaos                 # list built-in plans
//	fsctl chaos server-crash    # pretty-print one plan's event timeline
//	fsctl chaos random -seed 7  # print the seeded random plan
//
// The trace subcommand works with the causal span traces fsbench -trace
// writes (Chrome trace-event JSON, Perfetto-loadable):
//
//	fsctl trace -run -out t.json   # trace a small deterministic sim workload
//	fsctl trace -summary t.json    # critical-path summary of the kept traces
//	fsctl trace -validate t.json   # parse + span-tree invariant check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"switchfs"
	"switchfs/internal/chaos"
	"switchfs/internal/client"
	"switchfs/internal/cluster"
	"switchfs/internal/env"
	"switchfs/internal/trace"
)

// chaosCmd serves `fsctl chaos [name] [-seed N]`: listing and timeline
// pretty-printing of the built-in fault plans (authored against the paper's
// 8-server geometry) and the seeded random plan generator. The -seed flag
// is accepted both before the subcommand and after the plan name.
func chaosCmd(args []string, servers, dataNodes int, seed int64) int {
	var name string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name = args[0]
		args = args[1:]
	}
	sub := flag.NewFlagSet("fsctl chaos", flag.ContinueOnError)
	subSeed := sub.Int64("seed", seed, "seed for 'chaos random'")
	if err := sub.Parse(args); err != nil {
		return 2
	}
	if sub.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fsctl: unexpected arguments after chaos plan: %v\n", sub.Args())
		return 2
	}
	seed = *subSeed

	g := chaos.DefaultGeometry()
	if servers > 0 {
		g.Servers = servers
	}
	if dataNodes >= 0 {
		g.DataNodes = dataNodes
	}
	if name == "" {
		fmt.Printf("built-in chaos plans (geometry: %d servers, %d clients, %d switches, %d data nodes r=%d):\n",
			g.Servers, g.Clients, g.Switches, g.DataNodes, g.DataReplication)
		for _, p := range chaos.BuiltinPlans(g) {
			fmt.Printf("  %-16s %s (%d events, horizon %.0fms)\n",
				p.Name, p.Desc, len(p.Events), float64(p.Horizon)/1e6)
		}
		fmt.Printf("  %-16s %s\n", "random", "seeded random fault schedule (use -seed N)")
		fmt.Println("\nrun one with: fsbench -fig chaos [-seed N]; print one with: fsctl chaos <name>")
		return 0
	}
	var plan chaos.Plan
	if name == "random" {
		plan = chaos.RandomPlan(seed, g, 8*env.Millisecond)
	} else {
		var ok bool
		plan, ok = chaos.BuiltinPlan(g, name)
		if !ok {
			fmt.Fprintf(os.Stderr, "fsctl: unknown chaos plan %q (run 'fsctl chaos' to list)\n", name)
			return 2
		}
	}
	fmt.Print(plan.Timeline())
	if err := plan.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "fsctl: %v\n", err)
		return 1
	}
	return 0
}

// traceCmd serves `fsctl trace`: generating a small deterministic trace
// (-run), summarizing a trace file's kept ops by critical path (-summary),
// and checking a file's span-tree invariants (-validate).
func traceCmd(args []string) int {
	sub := flag.NewFlagSet("fsctl trace", flag.ContinueOnError)
	run := sub.Bool("run", false, "trace a small deterministic sim workload (mkdir/create/rename across servers)")
	out := sub.String("out", "", "with -run: write the Chrome trace-event JSON here (default stdout)")
	summary := sub.String("summary", "", "summarize a trace file's kept ops by critical path")
	validate := sub.String("validate", "", "parse a trace file and check span-tree invariants")
	seed := sub.Int64("seed", 1, "with -run: simulation seed")
	topN := sub.Int("top", 10, "with -summary: how many ops to show")
	if err := sub.Parse(args); err != nil {
		return 2
	}
	if sub.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fsctl: unexpected arguments: %v\n", sub.Args())
		return 2
	}
	switch {
	case *run:
		return traceRun(*seed, *out)
	case *summary != "":
		spans, err := loadSpans(*summary)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsctl: %v\n", err)
			return 1
		}
		fmt.Print(trace.Summarize(spans, *topN))
		return 0
	case *validate != "":
		spans, err := loadSpans(*validate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsctl: %v\n", err)
			return 1
		}
		if err := trace.Validate(spans); err != nil {
			fmt.Fprintf(os.Stderr, "fsctl: %s: %v\n", *validate, err)
			return 1
		}
		roots := 0
		for _, s := range spans {
			if s.Parent == 0 {
				roots++
			}
		}
		fmt.Printf("%s: valid (%d spans, %d root ops)\n", *validate, len(spans), roots)
		return 0
	default:
		fmt.Fprintln(os.Stderr, "fsctl trace: need one of -run, -summary <file>, -validate <file>")
		return 2
	}
}

func loadSpans(path string) ([]trace.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ParseJSON(f)
}

// traceRun deploys a small simulated cluster with tracing on and drives a
// namespace workload that crosses servers (mkdirs, creates, and renames, so
// the trace shows switch hops, WAL appends and 2PC rounds), then writes the
// trace. Deterministic: same seed, same bytes.
func traceRun(seed int64, out string) int {
	rec := trace.New(trace.Config{Keep: 16})
	sim := env.NewSim(seed)
	c := cluster.New(sim, cluster.Options{
		Servers:        4,
		CoresPerServer: 2,
		Clients:        2,
		Costs:          env.DefaultCosts(),
		Trace:          rec,
	})
	c.Run(0, func(p *env.Proc, cl *client.Client) {
		for i := 0; i < 8; i++ {
			dir := fmt.Sprintf("/d%d", i)
			check(cl.Mkdir(p, dir, 0))
			for j := 0; j < 4; j++ {
				check(cl.Create(p, fmt.Sprintf("%s/f%d", dir, j), 0))
			}
		}
		// Cross-directory renames: source and destination parents live on
		// different servers, so these run the 2PC path.
		for i := 0; i < 8; i++ {
			check(cl.Rename(p, fmt.Sprintf("/d%d/f0", i), fmt.Sprintf("/d%d/g0", (i+1)%8)))
		}
	})
	sim.Shutdown()

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsctl: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := rec.WriteJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "fsctl: %v\n", err)
		return 1
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "fsctl: wrote %s (%d traces kept)\n", out, len(rec.KeptTraces()))
		fmt.Fprint(os.Stderr, rec.Summary(5))
	}
	return 0
}

// check panics on unexpected workload errors inside traceRun: the tiny
// namespace is conflict-free, so any failure is a harness bug.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	servers := flag.Int("servers", 4, "metadata server count")
	dataNodes := flag.Int("datanodes", 0, "data node count (open/read/write)")
	seed := flag.Int64("seed", 1, "seed for the simulated deployment and for 'chaos random'")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "fsctl: no commands; try 'mkdir /a' 'create /a/f' 'ls /a', or 'fsctl chaos'")
		os.Exit(2)
	}
	if flag.Arg(0) == "trace" {
		os.Exit(traceCmd(flag.Args()[1:]))
	}
	if flag.Arg(0) == "chaos" {
		// The -servers default (4) belongs to the filesystem-command mode;
		// chaos plans default to the paper's geometry unless the flag was
		// given explicitly.
		chaosServers, chaosData := 0, -1
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "servers":
				chaosServers = *servers
			case "datanodes":
				chaosData = *dataNodes
			}
		})
		os.Exit(chaosCmd(flag.Args()[1:], chaosServers, chaosData, *seed))
	}

	if err := runScript(os.Stdout, *seed, *servers, *dataNodes, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "fsctl:", err)
		os.Exit(1)
	}
}

// runScript deploys a cluster on a simulator seeded with seed and runs the
// filesystem commands in order, writing one transcript line (or listing) per
// command to w. Command failures are part of the transcript; the returned
// error reports a deployment that could not be built.
func runScript(w io.Writer, seed int64, servers, dataNodes int, cmds []string) error {
	fs, err := switchfs.New(switchfs.NewSimEnv(seed),
		switchfs.WithServers(servers),
		switchfs.WithDataNodes(dataNodes))
	if err != nil {
		return err
	}

	// An unbound session: each command dispatches on the client's node and
	// drives the simulation until it completes.
	s := fs.Session(0)
	for _, raw := range cmds {
		fields := strings.Fields(raw)
		if len(fields) == 0 {
			continue
		}
		cmd := fields[0]
		arg := func(i int) string {
			if i < len(fields)-1 {
				return fields[i+1]
			}
			return ""
		}
		var err error
		switch cmd {
		case "mkdir":
			err = s.Mkdir(arg(0), 0)
		case "rmdir":
			err = s.Rmdir(arg(0))
		case "create":
			err = s.Create(arg(0), 0)
		case "rm":
			err = s.Remove(arg(0))
		case "stat":
			var a switchfs.Attr
			a, err = s.Stat(arg(0))
			if err == nil {
				fmt.Fprintf(w, "%s: %v mode=%o size=%d nlink=%d\n",
					arg(0), a.Type, a.Perm, a.Size, a.Nlink)
			}
		case "statdir":
			var a switchfs.Attr
			a, err = s.StatDir(arg(0))
			if err == nil {
				fmt.Fprintf(w, "%s: dir mode=%o entries=%d\n", arg(0), a.Perm, a.Size)
			}
		case "ls":
			var es []switchfs.DirEntry
			es, err = s.ReadDir(arg(0))
			for _, e := range es {
				fmt.Fprintf(w, "%v\t%s\n", e.Type, e.Name)
			}
		case "mv":
			err = s.Rename(arg(0), arg(1))
		case "ln":
			err = s.Link(arg(0), arg(1))
		case "chmod":
			err = s.Chmod(arg(0), 0o600)
		case "open":
			var f *switchfs.File
			f, err = s.Open(arg(0))
			if err == nil {
				fmt.Fprintf(w, "%s: opened, type=%v\n", f.Name(), f.Attr().Type)
				err = f.Close()
			}
		case "read", "write":
			n := int64(4096)
			if v, perr := strconv.ParseInt(arg(1), 10, 64); perr == nil {
				n = v
			}
			var f *switchfs.File
			f, err = s.Open(arg(0))
			if err == nil {
				if cmd == "read" {
					err = f.Read(n)
				} else {
					err = f.Write(n)
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", raw, err)
		} else if cmd != "stat" && cmd != "statdir" && cmd != "ls" && cmd != "open" {
			fmt.Fprintf(w, "%s: ok\n", raw)
		}
	}
	return nil
}
