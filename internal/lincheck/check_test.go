package lincheck

import (
	"strings"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/workload"
)

// ev builds a completed event.
func ev(client int, o workload.Op, out workload.Outcome, call, ret int64) Event {
	return Event{Client: client, Op: o, Out: out, Call: call, Ret: ret}
}

func okOut() workload.Outcome                { return workload.Outcome{} }
func errOut(sentinel error) workload.Outcome { return workload.Outcome{Err: sentinel} }

func TestCheckSequentialLegal(t *testing.T) {
	h := History{
		ev(0, op(core.OpMkdir, "/d"), okOut(), 0, 10),
		ev(0, op(core.OpCreate, "/d/f"), okOut(), 20, 30),
		ev(0, op(core.OpStat, "/d/f"),
			workload.Outcome{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm, Nlink: 1}}, 40, 50),
		ev(0, op(core.OpCreate, "/d/f"), errOut(core.ErrExist), 60, 70),
	}
	if r := Check(h); !r.Ok || r.Undecided {
		t.Fatalf("legal sequential history rejected: %+v", r)
	}
}

func TestCheckLostWrite(t *testing.T) {
	// A create acked before a stat was invoked; the stat misses it. No
	// linearization explains that.
	h := History{
		ev(0, op(core.OpCreate, "/f"), okOut(), 0, 10),
		ev(1, op(core.OpStat, "/f"), errOut(core.ErrNotExist), 20, 30),
	}
	if r := Check(h); r.Ok {
		t.Fatal("lost acknowledged write not detected")
	}
}

func TestCheckResurrection(t *testing.T) {
	h := History{
		ev(0, op(core.OpCreate, "/f"), okOut(), 0, 10),
		ev(0, op(core.OpDelete, "/f"), okOut(), 20, 30),
		ev(1, op(core.OpReadDir, "/"),
			workload.Outcome{Entries: []core.DirEntry{{Name: "f", Type: core.TypeRegular}}}, 40, 50),
	}
	if r := Check(h); r.Ok {
		t.Fatal("resurrection in readdir not detected")
	}
}

func TestCheckConcurrentReorderingAllowed(t *testing.T) {
	// Two concurrent ops may linearize in either order: the stat overlapping
	// the create may legally miss it.
	h := History{
		ev(0, op(core.OpCreate, "/f"), okOut(), 0, 30),
		ev(1, op(core.OpStat, "/f"), errOut(core.ErrNotExist), 10, 20),
	}
	if r := Check(h); !r.Ok {
		t.Fatal("legal concurrent reordering rejected")
	}
}

func TestCheckTimeoutMayApplyLateOrNever(t *testing.T) {
	// A timed-out create may apply after later reads (ghost execution)...
	timedOut := Event{Client: 0, Op: op(core.OpCreate, "/f"),
		Out: errOut(core.ErrTimeout), Call: 0, Ret: 10, TimedOut: true}
	h := History{
		timedOut,
		ev(1, op(core.OpStat, "/f"), errOut(core.ErrNotExist), 20, 30),
		ev(1, op(core.OpStat, "/f"),
			workload.Outcome{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm}}, 40, 50),
	}
	if r := Check(h); !r.Ok {
		t.Fatal("late ghost application rejected")
	}
	// ...or never apply at all.
	h2 := History{
		timedOut,
		ev(1, op(core.OpStat, "/f"), errOut(core.ErrNotExist), 20, 30),
	}
	if r := Check(h2); !r.Ok {
		t.Fatal("never-applied timeout rejected")
	}
	// ...or even apply twice across an intervening acknowledged delete (a
	// retransmission re-executing after a dedup-cache loss).
	h3 := History{
		timedOut,
		ev(1, op(core.OpStat, "/f"),
			workload.Outcome{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm}}, 20, 30),
		ev(1, op(core.OpDelete, "/f"), okOut(), 40, 50),
		ev(1, op(core.OpStat, "/f"),
			workload.Outcome{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm}}, 60, 70),
	}
	if r := Check(h3); !r.Ok {
		t.Fatal("double ghost application rejected")
	}
}

func TestCheckResentOwnEffect(t *testing.T) {
	// A resent create reporting EEXIST with nobody else around must be its
	// own earlier execution: accepted only because of the resent flag.
	resent := Event{Client: 0, Op: op(core.OpCreate, "/f"),
		Out: errOut(core.ErrExist), Call: 0, Ret: 10, Resent: true}
	h := History{
		resent,
		ev(1, op(core.OpStat, "/f"),
			workload.Outcome{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm}}, 20, 30),
	}
	if r := Check(h); !r.Ok {
		t.Fatal("resent create's own-effect EEXIST rejected")
	}
	// Without the flag the same history is a genuine violation.
	plain := resent
	plain.Resent = false
	h[0] = plain
	if r := Check(h); r.Ok {
		t.Fatal("unexplained EEXIST accepted without the resent flag")
	}
}

// TestCheckSameInstantProgramOrder pins the per-client program-order gate:
// back-to-back operations of one client can share a virtual-time instant
// (Ret(prev) == Call(next)), and interval order alone would read them as
// concurrent — letting a lost acknowledged write linearize its reader
// before its writer.
func TestCheckSameInstantProgramOrder(t *testing.T) {
	h := History{
		ev(0, op(core.OpCreate, "/f"), okOut(), 0, 10),
		ev(0, op(core.OpStat, "/f"), errOut(core.ErrNotExist), 10, 20), // Call == prev Ret
	}
	if r := Check(h); r.Ok {
		t.Fatal("same-client reorder across a shared instant accepted (program order lost)")
	}
	// Different clients at the same instants ARE concurrent: legal.
	h[1].Client = 1
	if r := Check(h); !r.Ok {
		t.Fatal("cross-client concurrency at a shared instant rejected")
	}
}

func TestCheckStatDirSizeBounds(t *testing.T) {
	h := History{
		ev(0, op(core.OpMkdir, "/d"), okOut(), 0, 10),
		ev(0, op(core.OpCreate, "/d/f"), okOut(), 20, 30),
		ev(1, op(core.OpStatDir, "/d"),
			workload.Outcome{Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Size: 2}}, 40, 50),
	}
	if r := Check(h); r.Ok {
		t.Fatal("impossible directory size accepted")
	}
}

// TestMutationBrokenRename proves end to end that the checker and the
// differential harness detect deliberately-broken rename semantics and
// minimize the counterexample (the ISSUE's seeded mutation requirement).
func TestMutationBrokenRename(t *testing.T) {
	// Hand history: a rename over an existing destination reported EEXIST —
	// legal for the real semantics, impossible for the broken model.
	h := History{
		ev(0, op(core.OpCreate, "/a"), okOut(), 0, 10),
		ev(1, op(core.OpCreate, "/b"), okOut(), 0, 12),
		ev(0, op2(core.OpRename, "/a", "/b"), errOut(core.ErrExist), 20, 30),
	}
	if r := Check(h); !r.Ok {
		t.Fatal("correct model rejected a legal rename history")
	}
	broken := func(sub History) CheckResult { return CheckAgainst(NewBrokenRenameModel(), sub) }
	if r := broken(h); r.Ok {
		t.Fatal("broken rename model not detected")
	}
	// Nothing is removable: the rename's EEXIST is the violation, and the
	// create of its destination is what makes that answer correct — dropping
	// it would hand back a counterexample the real semantics rejects too.
	if min := MinimizeAgainst(broken, h); len(min) != len(h) {
		t.Fatalf("the counterexample lost an event:\n%s", min)
	}

	// Against the real system: some seed's differential program must expose
	// the broken model too.
	detected := false
	for seed := int64(1); seed <= 16 && !detected; seed++ {
		prog := GenProgram(seed, 3, 40, AdversarialMix)
		detected = DiffWithModel(NewBrokenRenameModel(), seed, prog.Flatten()).Failed()
	}
	if !detected {
		t.Fatal("differential harness never exposed the broken rename model over 16 seeds")
	}
}

// TestMinimizePreservesViolation pads lost-write histories with noise.
// Minimize must strip the noise and keep a failing core that is still a
// history the system could produce: the acknowledged write the reads contradict
// stays, instead of the "minimal" read of a directory nobody created.
func TestMinimizePreservesViolation(t *testing.T) {
	for _, c := range []struct {
		what string
		h    History
		keep []string // events the counterexample must hold
		max  int
	}{
		{what: "a stat misses a create that returned before it",
			h: History{
				ev(0, op(core.OpMkdir, "/d"), okOut(), 0, 5),
				ev(0, op(core.OpCreate, "/d/x"), okOut(), 10, 15),
				ev(0, op(core.OpCreate, "/f"), okOut(), 20, 25),
				ev(1, op(core.OpStatDir, "/d"),
					workload.Outcome{Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Size: 1}}, 30, 35),
				ev(1, op(core.OpStat, "/f"), errOut(core.ErrNotExist), 40, 45),
			},
			keep: []string{"create /f", "stat /f"}, max: 4},
		{what: "the audit's listing misses one of two acknowledged creates",
			h: History{
				ev(0, op(core.OpMkdir, "/d"), okOut(), 0, 5),
				ev(1, op(core.OpCreate, "/d/x"), okOut(), 10, 15),
				ev(2, op(core.OpCreate, "/d/y"), okOut(), 12, 18),
				ev(3, op(core.OpReadDir, "/d"), workload.Outcome{Attr: core.Attr{Type: core.TypeDir, Perm: core.DefaultDirPerm, Size: 1},
					Entries: []core.DirEntry{{Name: "y", Type: core.TypeRegular, Perm: core.DefaultFilePerm}}}, 30, 35),
				ev(3, op(core.OpStat, "/d/y"), workload.Outcome{Attr: core.Attr{Type: core.TypeRegular, Perm: core.DefaultFilePerm, Nlink: 1}}, 36, 40),
			},
			keep: []string{"mkdir /d", "create /d/x", "readdir /d"}, max: 4},
	} {
		if r := Check(c.h); r.Ok {
			t.Fatalf("%s: padded history unexpectedly linearizable", c.what)
		}
		min := Minimize(c.h)
		if r := Check(min); r.Ok {
			t.Errorf("%s: minimized history no longer fails:\n%s", c.what, min)
		}
		if len(min) > c.max {
			t.Errorf("%s: minimization left %d events, want at most %d:\n%s", c.what, len(min), c.max, min)
		}
		for _, want := range c.keep {
			if !strings.Contains(min.String(), want) {
				t.Errorf("%s: the counterexample lost %q:\n%s", c.what, want, min)
			}
		}
	}
}

func TestHistoryOverLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized history did not panic")
		}
	}()
	h := make(History, maxHistory+1)
	for i := range h {
		h[i] = ev(0, op(core.OpStat, "/x"), errOut(core.ErrNotExist), int64(i*10), int64(i*10+5))
	}
	Check(h)
}
