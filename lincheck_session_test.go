package switchfs_test

import (
	"errors"
	"testing"

	"switchfs"
	"switchfs/internal/core"
	"switchfs/internal/lincheck"
	"switchfs/internal/workload"
)

// TestLincheckThroughSessions drives concurrent programs through the PUBLIC
// Session API (FS.RunSessions), records invocation/response intervals in
// virtual time as a lincheck.History, and requires the histories to be
// linearizable against the sequential model. This pins the whole stack the
// way applications see it: *PathError/*LinkError unwrapping included.
func TestLincheckThroughSessions(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		const clients = 3
		prog := lincheck.GenProgram(seed, clients, 7, lincheck.AdversarialMix)
		sim := switchfs.NewSimEnv(seed)
		fs, err := switchfs.New(sim, switchfs.WithServers(4), switchfs.WithClients(clients))
		if err != nil {
			t.Fatal(err)
		}
		var h lincheck.History
		fs.RunSessions(clients, func(i int, s *switchfs.Session) {
			for _, op := range prog.Ops[i] {
				t0 := s.Now()
				out := applySession(s, op)
				ev := lincheck.Event{Client: i, Op: op, Out: out, Call: t0, Ret: s.Now()}
				if errors.Is(out.Err, switchfs.ErrTimeout) {
					ev.TimedOut = true
					ev.Out = workload.Outcome{Err: core.ErrTimeout}
				}
				h = append(h, ev)
			}
		})
		sim.Shutdown()
		if res := lincheck.Check(h); !res.Ok {
			t.Errorf("seed %d: session history not linearizable; minimized counterexample:\n%s",
				seed, lincheck.Minimize(h))
		}
	}
}

// applySession executes one generated op through a Session, unwrapping the
// os-style error envelopes back to the sentinels the model speaks.
func applySession(s *switchfs.Session, op workload.Op) workload.Outcome {
	var out workload.Outcome
	switch op.Kind {
	case core.OpCreate:
		out.Err = s.Create(op.Path, op.Perm)
	case core.OpMkdir:
		out.Err = s.Mkdir(op.Path, op.Perm)
	case core.OpDelete:
		out.Err = s.Remove(op.Path)
	case core.OpRmdir:
		out.Err = s.Rmdir(op.Path)
	case core.OpStat:
		out.Attr, out.Err = s.Stat(op.Path)
	case core.OpOpen:
		f, err := s.Open(op.Path)
		out.Err = err
		if err == nil {
			out.Attr = f.Attr()
		}
	case core.OpClose:
		// The session surface closes through a handle; a path-addressed
		// close is a stat-shaped probe of the same inode (the checker
		// compares close outcomes by error alone).
		out.Attr, out.Err = s.Stat(op.Path)
	case core.OpChmod:
		out.Err = s.Chmod(op.Path, op.Perm)
	case core.OpStatDir:
		out.Attr, out.Err = s.StatDir(op.Path)
	case core.OpReadDir:
		out.Entries, out.Err = s.ReadDir(op.Path)
	case core.OpRename:
		out.Err = s.Rename(op.Path, op.Path2)
	case core.OpLink:
		out.Err = s.Link(op.Path, op.Path2)
	default:
		out.Err = core.ErrInvalid
	}
	out.Err = unwrapSentinel(out.Err)
	return out
}

// unwrapSentinel strips the *PathError/*LinkError envelope.
func unwrapSentinel(err error) error {
	if err == nil {
		return nil
	}
	var pe *switchfs.PathError
	if errors.As(err, &pe) {
		return pe.Err
	}
	var le *switchfs.LinkError
	if errors.As(err, &le) {
		return le.Err
	}
	return err
}
