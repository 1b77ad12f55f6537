package lincheck

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"switchfs/internal/chaos"
	"switchfs/internal/cluster"
	"switchfs/internal/core"
	"switchfs/internal/env"
	"switchfs/internal/ring"
)

// sweepSeeds returns a sweep's seed budget: whatever LINCHECK_SEEDS says, 4
// under -short, raceWidth under the race detector, and otherwise 1 024. At
// 1 024 seeds the three sweeps cost, run one seed after another on a two-core
// box, about 2 s fault-free, 13 s faulty and 4 s differential; sweep spreads
// them over parallel subtests, so they take about half that in wall time. A
// sweep widens only if tier-1 can pay for it.
func sweepSeeds(t *testing.T, raceWidth int64) int64 {
	if s := os.Getenv("LINCHECK_SEEDS"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n <= 0 {
			t.Fatalf("bad LINCHECK_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	if underRace {
		return raceWidth
	}
	return 1024
}

// sweepChunk is the seeds one parallel subtest of a sweep checks.
const sweepChunk = 64

// sweep runs check on the seeds 1 … sweepSeeds(t, raceWidth), sweepChunk
// seeds per subtest, the subtests in parallel with each other and with the
// other sweeps.
func sweep(t *testing.T, raceWidth int64, check func(t *testing.T, seed int64)) {
	t.Parallel()
	n := sweepSeeds(t, raceWidth)
	for lo := int64(1); lo <= n; lo += sweepChunk {
		hi := min(lo+sweepChunk-1, n)
		t.Run(fmt.Sprintf("seeds %d-%d", lo, hi), func(t *testing.T) {
			t.Parallel()
			for seed := lo; seed <= hi; seed++ {
				check(t, seed)
			}
		})
	}
}

func reportFailure(t *testing.T, what string, seed int64, rep *Report) {
	t.Helper()
	t.Errorf("%s seed %d failed: issues=%v linearizable=%v undecided=%v",
		what, seed, rep.Run.Issues, rep.Check.Ok, rep.Check.Undecided)
	if rep.Counterexample != nil {
		t.Errorf("minimized counterexample (%d events):\n%s",
			len(rep.Counterexample), rep.Counterexample)
	}
}

// TestSweepFaultFree checks concurrent histories on a healthy cluster: the
// adversarial mix, and the two-path mix on eight clients, where transactions
// queue at the coordinator and one is decided while the next prepares.
func TestSweepFaultFree(t *testing.T) {
	sweep(t, 256, func(t *testing.T, seed int64) {
		for name, prog := range map[string]Program{
			"fault-free":          GenProgram(seed, 4, 7, AdversarialMix),
			"fault-free two-path": GenProgram(seed, 8, 4, TwoPathMix),
		} {
			if rep := CheckConcurrent(seed, prog, nil); rep.Failed() {
				reportFailure(t, name, seed, rep)
			}
		}
	})
}

// TestSweepFaulty checks concurrent histories across the plan catalog, with
// both mixes (the two-path programs are shorter: every timed-out mutation
// adds a ghost event to a history the search bounds at 64).
func TestSweepFaulty(t *testing.T) {
	sweep(t, 64, func(t *testing.T, seed int64) {
		for name, prog := range map[string]Program{
			"plan ":          GenProgram(seed, 3, 6, AdversarialMix),
			"two-path plan ": GenProgram(seed, 8, 3, TwoPathMix),
		} {
			for _, plan := range Plans(seed) {
				if rep := CheckConcurrent(seed, prog, &plan); rep.Failed() {
					reportFailure(t, name+plan.Name, seed, rep)
				}
			}
		}
	})
}

// TestSweepDifferential diffs model, SwitchFS and baseline over sequential
// programs: the adversarial small-pool generator and the PanguMix-derived
// trace shape (workload.Program).
func TestSweepDifferential(t *testing.T) {
	sweep(t, 1024, func(t *testing.T, seed int64) {
		for name, ops := range map[string][]Op{
			"pool": GenProgram(seed, 3, 40, AdversarialMix).Flatten(),
			"mix":  MixProgram(seed, 60),
		} {
			if rep := RunDiff(seed, ops); rep.Failed() {
				t.Errorf("differential %s seed %d: %d divergences", name, seed, len(rep.Divergences))
				for _, d := range rep.Divergences {
					t.Errorf("  %s", d)
				}
			}
		}
	})
}

// TestRunConcurrentDeterministic pins the recorder: one seed, two runs,
// byte-identical histories.
func TestRunConcurrentDeterministic(t *testing.T) {
	prog := GenProgram(3, 3, 6, AdversarialMix)
	plan, _ := chaos.BuiltinPlan(Geometry, "server-crash")
	a := RunConcurrent(3, prog, &plan)
	b := RunConcurrent(3, prog, &plan)
	if a.History.String() != b.History.String() {
		t.Fatalf("same seed produced different histories:\n--- a ---\n%s--- b ---\n%s",
			a.History, b.History)
	}
	if fmt.Sprint(a.Issues) != fmt.Sprint(b.Issues) || a.Packets != b.Packets {
		t.Fatalf("same seed produced different issues/counters: %v/%d vs %v/%d",
			a.Issues, a.Packets, b.Issues, b.Packets)
	}
}

// TestGenProgramDeterministic pins the generator.
func TestGenProgramDeterministic(t *testing.T) {
	a, b := GenProgram(7, 3, 20, AdversarialMix), GenProgram(7, 3, 20, AdversarialMix)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different programs")
	}
	if fmt.Sprint(a) == fmt.Sprint(GenProgram(8, 3, 20, AdversarialMix)) {
		t.Fatal("different seeds produced identical programs")
	}
	if len(a.Paths) == 0 || len(a.Paths) > 12 {
		t.Fatalf("path universe %d outside the audit budget", len(a.Paths))
	}
}

// TestRegressionRenamedDirChangeLog pins the phantom-dentry bug the first
// differential sweep found (seed 15): a deferred update committed through a
// directory's post-rename path landed in a change-log still keyed to the
// directory's old fingerprint, so the new owner's aggregations never
// collected it — readdir listed a deleted entry forever and statdir
// overcounted. Fixed by re-keying the change-log on the first
// current-ancestry request after the rename (server.rekeyClog).
func TestRegressionRenamedDirChangeLog(t *testing.T) {
	ops := []Op{
		{Kind: core.OpMkdir, Path: "/a"},
		{Kind: core.OpCreate, Path: "/a/x"},
		{Kind: core.OpRename, Path: "/a", Path2: "/b"},
		{Kind: core.OpDelete, Path: "/b/x"},
	}
	if rep := RunDiff(15, ops); rep.Failed() {
		t.Fatalf("renamed-directory change-log regression:\n%s", rep.Divergences)
	}
	// The same shape through rmdir: the emptied dir must be removable.
	ops = append(ops, Op{Kind: core.OpRmdir, Path: "/b"})
	if rep := RunDiff(15, ops); rep.Failed() {
		t.Fatalf("rmdir after renamed-directory delete:\n%s", rep.Divergences)
	}
}

// planNamed returns the catalog plan the sweep runs under name for seed.
func planNamed(t *testing.T, seed int64, name string) *chaos.Plan {
	t.Helper()
	for _, p := range Plans(seed) {
		if p.Name == name {
			return &p
		}
	}
	t.Fatalf("no plan %q for seed %d", name, seed)
	return nil
}

// TestRegressionRestartKeepsDirIDsUnique pins class E of the wide sweep: a
// readdir of a directory just created listed another directory's entries
// (mkdir /a; mkdir /a/x; readdir /a/x = [x(dir)]), or answered ENOTDIR, under
// random plans only. A restarted server's DirID generator started again at
// sequence 0, so the new incarnation's first mkdir minted the DirID of the
// dead one's first directory. DirIDs now come from the server's incarnation,
// like every other id it issues. Adversarial random-905 had this shape until
// a schedule change moved it; it stays as a directed input.
func TestRegressionRestartKeepsDirIDsUnique(t *testing.T) {
	if rep := CheckConcurrent(117, GenProgram(117, 8, 3, TwoPathMix), planNamed(t, 117, "random-117")); rep.Failed() {
		reportFailure(t, "two-path plan random-117", 117, rep)
	}
	for _, seed := range []int64{691, 905} {
		name := fmt.Sprintf("random-%d", seed)
		if rep := CheckConcurrent(seed, GenProgram(seed, 3, 6, AdversarialMix), planNamed(t, seed, name)); rep.Failed() {
			reportFailure(t, "plan "+name, seed, rep)
		}
	}
}

// TestRegressionRenameRechecksAncestorsInTurn pins the part of class B that
// a stale ancestor check caused: a rename or link resolved through a
// directory that a rename queued ahead of it moved, and both were
// acknowledged. The coordinator checked the request's ancestors on entry,
// before it waited for renameMu, while the directory rename ahead of it
// broadcasts its invalidation at its end, still holding the mutex. It now
// checks them again once the mutex is its own. Fault-free two-path 243 is
// another program of class B's shape, kept as a directed input.
func TestRegressionRenameRechecksAncestorsInTurn(t *testing.T) {
	for _, seed := range []int64{243, 351, 904} {
		if rep := CheckConcurrent(seed, GenProgram(seed, 8, 4, TwoPathMix), nil); rep.Failed() {
			reportFailure(t, "fault-free two-path", seed, rep)
		}
	}
	if rep := CheckConcurrent(109, GenProgram(109, 8, 3, TwoPathMix), planNamed(t, 109, "server-crash")); rep.Failed() {
		reportFailure(t, "two-path plan server-crash", 109, rep)
	}
}

// TestRegressionStaleTwoPathReResolvesBoth pins the rest of class B: a rename
// or link the coordinator refused as stale was resent with the source
// resolution captured before the refusal, because the client re-resolved
// only the destination. In fault-free 414, rename /b/x → /b is refused after
// rename /b → /a decides; the retry still names b's old id as the source
// parent, with a fresh invalidation sequence, and commits — creating /b out
// of /a/x. Client.twoPath now resolves both paths in one loop. Two-path 88
// under server-crash is the same class under a fault plan.
func TestRegressionStaleTwoPathReResolvesBoth(t *testing.T) {
	if rep := CheckConcurrent(414, GenProgram(414, 8, 4, TwoPathMix), nil); rep.Failed() {
		reportFailure(t, "fault-free two-path", 414, rep)
	}
	if rep := CheckConcurrent(88, GenProgram(88, 8, 3, TwoPathMix), planNamed(t, 88, "server-crash")); rep.Failed() {
		reportFailure(t, "two-path plan server-crash", 88, rep)
	}
}

// TestRegressionNlinkUnderTxnLock pins class C of the wide sweep, a directory
// that stays wedged with one client and no fault. A second hard link adjusts
// the file's shared attribute object inside a coordinated transaction, whose
// prepare locks the attribute key; the commit decision then adjusted the link
// count through the locking applyNlink, parked on its own lock, and held every
// key the transaction took on that server for good. The coordinator's
// retransmitted decision was acked as a duplicate, so the link itself
// returned ok. The last two programs are the differential seeds that found
// it, minimised.
func TestRegressionNlinkUnderTxnLock(t *testing.T) {
	links := []Op{
		{Kind: core.OpCreate, Path: "/f"},
		{Kind: core.OpLink, Path: "/f", Path2: "/g"},
		{Kind: core.OpLink, Path: "/f", Path2: "/h"},
		{Kind: core.OpLink, Path: "/f", Path2: "/i"},
	}
	for seed := int64(1); seed <= 4; seed++ {
		if rep := RunDiff(seed, links); rep.Failed() {
			t.Errorf("three links, seed %d:\n%s", seed, rep.Divergences)
		}
	}
	for _, c := range []struct {
		seed int64
		ops  []Op
	}{
		{93, []Op{
			{Kind: core.OpMkdir, Path: "/a"},
			{Kind: core.OpMkdir, Path: "/a/x"},
			{Kind: core.OpCreate, Path: "/a/x/u"},
			{Kind: core.OpLink, Path: "/a/x/u", Path2: "/a/x/t"},
			{Kind: core.OpLink, Path: "/a/x/u", Path2: "/a/y"},
			{Kind: core.OpDelete, Path: "/a/x/t"},
		}},
		{361, []Op{
			{Kind: core.OpMkdir, Path: "/b"},
			{Kind: core.OpMkdir, Path: "/a"},
			{Kind: core.OpCreate, Path: "/a/y"},
			{Kind: core.OpLink, Path: "/a/y", Path2: "/b/x"},
			{Kind: core.OpLink, Path: "/a/y", Path2: "/c"},
			{Kind: core.OpRename, Path: "/a/y", Path2: "/a"},
		}},
	} {
		if rep := RunDiff(c.seed, c.ops); rep.Failed() {
			t.Errorf("differential seed %d:\n%s", c.seed, rep.Divergences)
		}
	}
}

// TestRegressionLookupWaitsOutRmdir pins class A of the wide sweep: an rmdir
// and a mkdir under its directory both acknowledged, the child orphaned, with
// no fault injected. In seed 587 the rmdir of /b plants /b in its owner's
// invalidation list and starts its forced aggregation; a lookup of b reaches
// the owner in that window and finds /b, which the rmdir has not locked yet.
// Its reply carries the planted sequence number with the directory, so the
// client caches /b as current, and its mkdir /b/x passes checkAncestors after
// the rmdir found /b empty. A lookup now waits out an rmdir of its key.
func TestRegressionLookupWaitsOutRmdir(t *testing.T) {
	for _, seed := range []int64{232, 552, 587, 634} {
		if rep := CheckConcurrent(seed, GenProgram(seed, 4, 7, AdversarialMix), nil); rep.Failed() {
			reportFailure(t, "fault-free", seed, rep)
		}
	}
	plan, _ := chaos.BuiltinPlan(Geometry, "server-crash")
	if rep := CheckConcurrent(397, GenProgram(397, 3, 6, AdversarialMix), &plan); rep.Failed() {
		reportFailure(t, "plan server-crash", 397, rep)
	}
}

// TestRegressionRenameDetachesSource pins class F of the wide sweep: an entry
// created in a directory while that directory's rename was in flight was
// acknowledged, then missing from the renamed directory. In fault-free
// two-path 528, create /a/x is ok inside rename /a → /c, and readdir /c is
// then empty. The rename aggregated and scanned the directory, and only after
// its decision broadcast the invalidation, unawaited, so a create committed
// in between appended to a change-log nothing collected again. A directory
// rename now detaches its source as rmdir does, before it reads it: lookups
// of the key wait, and the directory is planted in every server's
// invalidation list by the aggregation that collects its entries. Two-path
// 2518 and 3074 fail when the detach does not make lookups wait.
func TestRegressionRenameDetachesSource(t *testing.T) {
	if rep := CheckConcurrent(965, GenProgram(965, 4, 7, AdversarialMix), nil); rep.Failed() {
		reportFailure(t, "fault-free", 965, rep)
	}
	for _, seed := range []int64{528, 2518, 3074} {
		if rep := CheckConcurrent(seed, GenProgram(seed, 8, 4, TwoPathMix), nil); rep.Failed() {
			reportFailure(t, "fault-free two-path", seed, rep)
		}
	}
	if rep := CheckConcurrent(507, GenProgram(507, 8, 3, TwoPathMix), planNamed(t, 507, "switch-reboot")); rep.Failed() {
		reportFailure(t, "two-path plan switch-reboot", 507, rep)
	}
}

// TestRegressionTwoPathReResolvesStaleSource pins class G of the wide sweep:
// under flaky-links a link whose source parent was gone (1116) or had become a
// file (1932) answered the destination's resolution error, ENOTDIR or ENOENT,
// because its source had resolved from a stale cache and the destination's
// error was returned unchecked. A destination that does not resolve now sends
// a source that came from the cache round again, with the cache cleared.
func TestRegressionTwoPathReResolvesStaleSource(t *testing.T) {
	for _, seed := range []int64{1116, 1932} {
		if rep := CheckConcurrent(seed, GenProgram(seed, 8, 3, TwoPathMix), planNamed(t, seed, "flaky-links")); rep.Failed() {
			reportFailure(t, "two-path plan flaky-links", seed, rep)
		}
	}
}

// TestSweepCoordinatorCrashAcrossTxn walks a coordinator crash, two
// microseconds at a time, across two renames that share their parent
// directory and reach the coordinator together: whatever instant the crash
// picks — either transaction preparing, one committed and undecided while the
// other prepares behind the released coordinator mutex, either decision half
// delivered — the history the clients and the post-recovery audit observe
// must linearize.
func TestSweepCoordinatorCrashAcrossTxn(t *testing.T) {
	prog := Program{
		Ops: [][]Op{
			{{Kind: core.OpMkdir, Path: "/a"}, {Kind: core.OpCreate, Path: "/a/x"},
				{Kind: core.OpStat, Path: "/a/x"}, {Kind: core.OpRename, Path: "/a/x", Path2: "/a/y"}},
			{{Kind: core.OpStatDir, Path: "/"}, {Kind: core.OpStatDir, Path: "/"},
				{Kind: core.OpCreate, Path: "/a/u"}, {Kind: core.OpRename, Path: "/a/u", Path2: "/a/v"}},
		},
		Paths: []string{"/a", "/a/u", "/a/v", "/a/x", "/a/y"},
	}
	// RunConcurrent paces a program over the plan's horizon: each client's
	// fourth op is issued at 4/5 of it.
	const horizon = 8 * env.Millisecond
	issue := horizon / 5 * 4
	outcomes := map[[2]string]bool{}
	for at := issue; at < issue+120*env.Microsecond; at += 2 * env.Microsecond {
		plan := chaos.Plan{
			Name:    fmt.Sprintf("coordinator-crash@%d", at),
			Horizon: horizon,
			Events: []chaos.Event{
				chaos.CrashServer(at, 0),
				chaos.RecoverServer(at+2*env.Millisecond, 0),
			},
		}
		rep := CheckConcurrent(5, prog, &plan)
		if rep.Failed() {
			reportFailure(t, "plan "+plan.Name, 5, rep)
		}
		var saw [2]string
		for _, ev := range rep.Run.History {
			if ev.Op.Kind == core.OpRename {
				saw[ev.Client] = fmt.Sprint(ev.Out.Err, ev.Resent, ev.TimedOut)
			}
		}
		outcomes[saw] = true
	}
	// The sweep must straddle both transactions: from both renames redone
	// after recovery, through one committed and re-driven while the other
	// times out or retries, to both returning before the crash — seven
	// distinct pairs of client outcomes at this writing.
	if len(outcomes) < 5 {
		t.Fatalf("the crash instants produced %d distinct outcome pairs: the sweep does not straddle the transactions: %v",
			len(outcomes), outcomes)
	}
}

// TestSweepOwnerCrashAcrossAggregation walks a crash of a DIRECTORY OWNER,
// two microseconds at a time, across the aggregation two clients' statdirs
// trigger while the directory's four creates are still pending in their file
// owners' change-logs: whatever instant the crash picks — the change-logs
// locked and the fetch in flight, the entries group-committed to the owner's
// WAL and the ack not yet sent (the peers then keep what the successor has
// already applied, and its WAL-rebuilt watermarks must drop the re-delivery),
// the ack half delivered — the history must linearize and the post-recovery
// statdir must read exactly the creates that were acknowledged. The second
// walk fixes that crash and moves a SECOND one across the successor's
// recovery, which holds the clients' retransmitted statdirs parked: the
// parked set dies with the incarnation and the third serves each request
// once. Both walks run with the links in order and under 5 µs of jitter.
func TestSweepOwnerCrashAcrossAggregation(t *testing.T) {
	prog := Program{
		Ops: [][]Op{
			{{Kind: core.OpMkdir, Path: "/a"}, {Kind: core.OpCreate, Path: "/a/x"},
				{Kind: core.OpCreate, Path: "/a/y"}, {Kind: core.OpStatDir, Path: "/a"}},
			{{Kind: core.OpStatDir, Path: "/"}, {Kind: core.OpCreate, Path: "/a/u"},
				{Kind: core.OpCreate, Path: "/a/v"}, {Kind: core.OpStatDir, Path: "/a"}},
		},
		Paths: []string{"/a", "/a/u", "/a/v", "/a/x", "/a/y"},
		Audit: []Op{{Kind: core.OpStatDir, Path: "/a"}},
	}
	owner := int(ring.New([]uint32{0, 1, 2, 3}, 0, cluster.ServerOf).OwnerOfFile(core.RootDirID, "a"))
	// RunConcurrent paces a program over the plan's horizon: with this one the
	// clients issue an op every 100 µs, so the statdirs of /a (the fourth)
	// leave at +400 µs with every create younger than the 200 µs push timer.
	// In a faulty run clients and servers retransmit every 500 µs.
	const (
		horizon = 500 * env.Microsecond
		issue   = horizon / 5 * 4
		tick    = 500 * env.Microsecond
	)
	everywhere := chaos.NodeSel{AllServers: true, AllClients: true, AllSwitches: true}
	for _, jitter := range []env.Duration{0, 5 * env.Microsecond} {
		run := func(name string, events ...chaos.Event) *Report {
			plan := chaos.Plan{Name: name, Horizon: horizon, Events: events}
			if jitter > 0 {
				plan.Name += "+jitter"
				plan.Events = append(plan.Events,
					chaos.LinkFault(0, "jitter", everywhere, everywhere, chaos.Rule{Jitter: jitter}))
			}
			rep := CheckConcurrent(5, prog, &plan)
			if rep.Failed() {
				reportFailure(t, "plan "+plan.Name, 5, rep)
			}
			return rep
		}
		// Which of the clients' two statdirs waited a recovery out, per instant.
		waited := func(rep *Report) (out [2]bool) {
			for _, ev := range rep.Run.History {
				if ev.Op.Kind == core.OpStatDir && ev.Op.Path == "/a" && ev.Client < 2 {
					out[ev.Client] = ev.Ret-ev.Call > tick
				}
			}
			return out
		}

		outcomes, parked := map[[2]bool]bool{}, 0
		for at := issue; at < issue+120*env.Microsecond; at += 2 * env.Microsecond {
			rep := run(fmt.Sprintf("owner-crash@%d", at),
				chaos.CrashServer(at, owner), chaos.RecoverServer(at+2*tick, owner))
			outcomes[waited(rep)] = true
			if rep.Run.Parked > 0 {
				parked++
			}
		}
		// The walk must straddle the aggregation: from a crash before either
		// statdir arrived (both wait, parked at the successor when it restarts
		// before their retransmission) through one answered and one not, to
		// both answered before the crash.
		if len(outcomes) < 3 || parked < 8 {
			t.Errorf("jitter %v: statdir outcomes %v, %d instants with parked requests: the walk does not straddle the aggregation",
				jitter, outcomes, parked)
		}

		// Second walk: the owner dies mid-aggregation, restarts so that its
		// ~30 µs recovery is under way when the statdirs' second
		// retransmission arrives, and dies again inside that recovery — or
		// after it released them. The third incarnation restarts on the same
		// phase two rounds later: it parks the statdirs again exactly when the
		// second never answered them.
		first, restart := issue+38*env.Microsecond, issue+2*tick+15*env.Microsecond
		parked = 0
		for at := restart; at < restart+120*env.Microsecond; at += 2 * env.Microsecond {
			rep := run(fmt.Sprintf("owner-crash@%d+recovery-crash@%d", first, at),
				chaos.CrashServer(first, owner), chaos.RecoverServer(restart, owner),
				chaos.CrashServer(at, owner), chaos.RecoverServer(restart+2*tick, owner))
			if rep.Run.Parked > 0 {
				parked++
			}
		}
		if parked < 5 || parked > 55 {
			t.Errorf("jitter %v: %d of 60 second crashes discarded parked requests: the walk does not straddle the recovery", jitter, parked)
		}
	}
}

// TestRegressionRenameInsidePushIdleWindow: eight clients each create a file
// in one shared directory and rename it at once, long before the 200 µs idle
// push would deliver the create's deferred directory update, then list the
// directory. The update is pending at the name's owner when the rename
// reaches the coordinator: the pre-flush delivers it (Flushes counts the
// renames that met it), so no rename spends serialized prepares on retry votes until the
// idle push has run — all eight, queued behind one another on the directory's
// inode lock, are back before their sources' idle pushes could have left —
// and the listing never shows a renamed-away name.
//
// The seeded mutation, run in a scratch copy (EXPERIMENTS.md "PR 24"): with
// the two flush calls removed from doRename the histories stay linearizable —
// entryPending votes retry until the idle push drains the name — and this
// test fails on the latency bound alone; with entryPending removed too it
// fails the checker (a renamed-away name listed again).
func TestRegressionRenameInsidePushIdleWindow(t *testing.T) {
	const clients = 8
	prog := Program{Paths: []string{"/a"}}
	for i := 0; i < clients; i++ {
		x, y := fmt.Sprintf("/a/x%d", i), fmt.Sprintf("/a/y%d", i)
		prog.Ops = append(prog.Ops, []Op{
			{Kind: core.OpMkdir, Path: "/a"}, // one wins; afterwards /a exists for all
			{Kind: core.OpCreate, Path: x},
			{Kind: core.OpRename, Path: x, Path2: y},
			{Kind: core.OpReadDir, Path: "/a"},
		})
	}
	const pushIdle = 200 * env.Microsecond // server.Config.Defaults
	for seed := int64(1); seed <= 4; seed++ {
		rep := CheckConcurrent(seed, prog, nil)
		if rep.Failed() {
			reportFailure(t, "rename inside the push-idle window", seed, rep)
		}
		if rep.Run.Flushes == 0 {
			t.Errorf("seed %d: no pre-flush met a pending name: the renames missed the push-idle window", seed)
		}
		// The idle push of a client's create cannot leave before created[client]
		// + pushIdle: a rename back earlier did not wait for it.
		var created [clients]env.Time
		for _, ev := range rep.Run.History {
			switch {
			case ev.Client >= clients:
			case ev.Op.Kind == core.OpCreate:
				created[ev.Client] = ev.Ret
			case ev.Op.Kind != core.OpRename:
			case ev.Out.Err != nil:
				t.Errorf("seed %d: %s: %v", seed, ev.Op, ev.Out.Err)
			case ev.Ret >= created[ev.Client]+pushIdle:
				t.Errorf("seed %d: %s returned %v after its source's create: it waited the idle push out instead of flushing",
					seed, ev.Op, ev.Ret-created[ev.Client])
			}
		}
	}
}
