package lincheck

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"switchfs/internal/chaos"
	"switchfs/internal/core"
	"switchfs/internal/env"
)

// sweepSeeds returns the seed budget: 4 under -short, 12 by default, and
// whatever LINCHECK_SEEDS says (the acceptance sweep exports
// LINCHECK_SEEDS=64).
func sweepSeeds(t *testing.T) int64 {
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
	return 12
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
	for seed := int64(1); seed <= sweepSeeds(t); seed++ {
		for name, prog := range map[string]Program{
			"fault-free":          GenProgram(seed, 4, 7, AdversarialMix),
			"fault-free two-path": GenProgram(seed, 8, 4, TwoPathMix),
		} {
			if rep := CheckConcurrent(seed, prog, nil); rep.Failed() {
				reportFailure(t, name, seed, rep)
			}
		}
	}
}

// TestSweepFaulty checks concurrent histories across the plan catalog, with
// both mixes (the two-path programs are shorter: every timed-out mutation
// adds a ghost event to a history the search bounds at 64).
func TestSweepFaulty(t *testing.T) {
	for seed := int64(1); seed <= sweepSeeds(t); seed++ {
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
	}
}

// TestSweepDifferential diffs model, SwitchFS and baseline over sequential
// programs: the adversarial small-pool generator and the PanguMix-derived
// trace shape (workload.Program).
func TestSweepDifferential(t *testing.T) {
	for seed := int64(1); seed <= sweepSeeds(t); seed++ {
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
	}
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
