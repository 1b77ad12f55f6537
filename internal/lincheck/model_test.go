package lincheck

import (
	"errors"
	"testing"

	"switchfs/internal/core"
	"switchfs/internal/workload"
)

// mk shorthand for ops in tests.
func op(kind core.Op, path string) workload.Op { return workload.Op{Kind: kind, Path: path} }
func op2(kind core.Op, src, dst string) workload.Op {
	return workload.Op{Kind: kind, Path: src, Path2: dst}
}
func opPerm(kind core.Op, p string, pm core.Perm) workload.Op {
	return workload.Op{Kind: kind, Path: p, Perm: pm}
}

func wantErr(t *testing.T, out workload.Outcome, sentinel error) {
	t.Helper()
	if !errors.Is(out.Err, sentinel) {
		t.Fatalf("got %v, want %v", out.Err, sentinel)
	}
}

func wantOK(t *testing.T, out workload.Outcome) {
	t.Helper()
	if out.Err != nil {
		t.Fatalf("unexpected error %v", out.Err)
	}
}

func TestModelErrorSemantics(t *testing.T) {
	m := NewModel()
	wantOK(t, m.Apply(op(core.OpMkdir, "/d")))
	wantErr(t, m.Apply(op(core.OpMkdir, "/d")), core.ErrExist)
	wantOK(t, m.Apply(op(core.OpCreate, "/d/f")))
	wantErr(t, m.Apply(op(core.OpCreate, "/d/f")), core.ErrExist)
	wantErr(t, m.Apply(op(core.OpCreate, "/missing/f")), core.ErrNotExist)
	wantErr(t, m.Apply(op(core.OpCreate, "/d/f/x")), core.ErrNotDir)
	wantErr(t, m.Apply(op(core.OpDelete, "/d")), core.ErrIsDir)
	wantErr(t, m.Apply(op(core.OpRmdir, "/d/f")), core.ErrNotDir)
	wantErr(t, m.Apply(op(core.OpRmdir, "/d")), core.ErrNotEmpty)
	wantErr(t, m.Apply(op(core.OpRmdir, "/nope")), core.ErrNotExist)
	wantErr(t, m.Apply(op(core.OpStat, "/nope")), core.ErrNotExist)
	wantErr(t, m.Apply(op(core.OpCreate, "/")), core.ErrInvalid)
	wantErr(t, m.Apply(op(core.OpStatDir, "/d/f")), core.ErrNotDir)

	// Root reads work without resolution.
	out := m.Apply(op(core.OpReadDir, "/"))
	wantOK(t, out)
	if len(out.Entries) != 1 || out.Entries[0].Name != "d" {
		t.Fatalf("root entries %v", out.Entries)
	}
	out = m.Apply(op(core.OpStatDir, "/d"))
	wantOK(t, out)
	if out.Attr.Size != 1 {
		t.Fatalf("statdir size %d, want 1", out.Attr.Size)
	}

	wantOK(t, m.Apply(op(core.OpDelete, "/d/f")))
	wantOK(t, m.Apply(op(core.OpRmdir, "/d")))
}

func TestModelRenameSemantics(t *testing.T) {
	m := NewModel()
	wantOK(t, m.Apply(op(core.OpMkdir, "/d")))
	wantOK(t, m.Apply(op(core.OpCreate, "/d/f")))
	wantOK(t, m.Apply(op(core.OpCreate, "/g")))

	// Missing source, even onto itself.
	wantErr(t, m.Apply(op2(core.OpRename, "/nope", "/x")), core.ErrNotExist)
	wantErr(t, m.Apply(op2(core.OpRename, "/nope", "/nope")), core.ErrNotExist)
	// Self-rename of an existing file is a no-op.
	wantOK(t, m.Apply(op2(core.OpRename, "/g", "/g")))
	// Existing destination.
	wantErr(t, m.Apply(op2(core.OpRename, "/g", "/d/f")), core.ErrExist)
	wantErr(t, m.Apply(op2(core.OpRename, "/g", "/d")), core.ErrExist)
	// Directory into its own subtree.
	wantErr(t, m.Apply(op2(core.OpRename, "/d", "/d/sub")), core.ErrLoop)
	// Destination parent missing / not a directory.
	wantErr(t, m.Apply(op2(core.OpRename, "/g", "/nope/x")), core.ErrNotExist)
	wantErr(t, m.Apply(op2(core.OpRename, "/g", "/d/f/x")), core.ErrNotDir)

	// A directory rename moves its children.
	wantOK(t, m.Apply(op2(core.OpRename, "/d", "/e")))
	wantOK(t, m.Apply(op(core.OpStat, "/e/f")))
	wantErr(t, m.Apply(op(core.OpStat, "/d/f")), core.ErrNotExist)
}

func TestModelLinkSemantics(t *testing.T) {
	m := NewModel()
	wantOK(t, m.Apply(op(core.OpMkdir, "/d")))
	wantOK(t, m.Apply(opPerm(core.OpCreate, "/d/f", 0)))

	wantErr(t, m.Apply(op2(core.OpLink, "/nope", "/l")), core.ErrNotExist)
	wantErr(t, m.Apply(op2(core.OpLink, "/d", "/l")), core.ErrIsDir)
	wantOK(t, m.Apply(op2(core.OpLink, "/d/f", "/l")))
	wantErr(t, m.Apply(op2(core.OpLink, "/d/f", "/l")), core.ErrExist)
	wantErr(t, m.Apply(op2(core.OpLink, "/d/f", "/d/f")), core.ErrExist)

	// References are observably independent: chmod on one name does not
	// affect the other (servers store per-reference perms).
	wantOK(t, m.Apply(opPerm(core.OpChmod, "/l", 0o600)))
	a := m.Apply(op(core.OpStat, "/d/f"))
	wantOK(t, a)
	if a.Attr.Perm != core.DefaultFilePerm {
		t.Fatalf("source perm %#o changed by link chmod", a.Attr.Perm)
	}
	l := m.Apply(op(core.OpStat, "/l"))
	wantOK(t, l)
	if l.Attr.Perm != 0o600 {
		t.Fatalf("link perm %#o, want 0o600", l.Attr.Perm)
	}

	// Deleting one reference leaves the other.
	wantOK(t, m.Apply(op(core.OpDelete, "/d/f")))
	wantOK(t, m.Apply(op(core.OpStat, "/l")))
}

func TestModelCloneIsolation(t *testing.T) {
	m := NewModel()
	wantOK(t, m.Apply(op(core.OpMkdir, "/d")))
	c := m.Clone()
	wantOK(t, c.Apply(op(core.OpCreate, "/d/f")))
	if out := m.Apply(op(core.OpStat, "/d/f")); !errors.Is(out.Err, core.ErrNotExist) {
		t.Fatal("clone mutation leaked into the original")
	}
	if m.Key() == c.Key() {
		t.Fatal("keys of diverged models match")
	}
}
