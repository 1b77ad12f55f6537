package switchfs

import (
	"errors"
	"fmt"
	"testing"
)

// TestSessionTable drives the v2 surface — bound sessions, functional
// options, *File handles, and os-style path errors — through a table of
// scenarios on the deterministic simulator (seed-stable).
func TestSessionTable(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		run  func(t *testing.T, fs *FS, s *Session)
	}{
		{
			name: "lifecycle",
			opts: []Option{WithServers(4), WithClients(2)},
			run: func(t *testing.T, fs *FS, s *Session) {
				if err := s.Mkdir("/a", 0); err != nil {
					t.Errorf("mkdir: %v", err)
					return
				}
				for i := 0; i < 5; i++ {
					if err := s.Create(fmt.Sprintf("/a/f%d", i), 0); err != nil {
						t.Errorf("create: %v", err)
						return
					}
				}
				attr, err := s.StatDir("/a")
				if err != nil || attr.Size != 5 {
					t.Errorf("statdir size=%d err=%v", attr.Size, err)
				}
				es, err := s.ReadDir("/a")
				if err != nil || len(es) != 5 {
					t.Errorf("readdir: %d entries err=%v", len(es), err)
				}
			},
		},
		{
			name: "path-errors",
			opts: []Option{WithServers(4)},
			run: func(t *testing.T, fs *FS, s *Session) {
				if err := s.Mkdir("/e", 0); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if err := s.Create("/e/f", 0); err != nil {
					t.Fatalf("create: %v", err)
				}
				err := s.Create("/e/f", 0)
				if !errors.Is(err, ErrExist) {
					t.Errorf("duplicate create: want ErrExist, got %v", err)
				}
				var pe *PathError
				if !errors.As(err, &pe) || pe.Op != "create" || pe.Path != "/e/f" {
					t.Errorf("want *PathError{create /e/f}, got %#v", err)
				}
				_, err = s.Stat("/e/missing")
				if !errors.Is(err, ErrNotExist) {
					t.Errorf("stat missing: want ErrNotExist, got %v", err)
				}
				err = s.Rename("/e/missing", "/e/g")
				var le *LinkError
				if !errors.Is(err, ErrNotExist) || !errors.As(err, &le) || le.Op != "rename" {
					t.Errorf("rename missing: want *LinkError{rename}/ErrNotExist, got %v", err)
				}
			},
		},
		{
			name: "file-handle",
			opts: []Option{WithServers(4), WithDataNodes(2)},
			run: func(t *testing.T, fs *FS, s *Session) {
				if err := s.Mkdir("/d", 0); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if err := s.Create("/d/img", 0o644); err != nil {
					t.Fatalf("create: %v", err)
				}
				f, err := s.Open("/d/img")
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if f.Name() != "/d/img" || f.Attr().Type != TypeRegular {
					t.Errorf("handle: name=%q attr=%+v", f.Name(), f.Attr())
				}
				if err := f.Write(64 << 10); err != nil {
					t.Errorf("write: %v", err)
				}
				if err := f.Read(64 << 10); err != nil {
					t.Errorf("read: %v", err)
				}
				if _, err := f.Stat(); err != nil {
					t.Errorf("fstat: %v", err)
				}
				if err := f.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
				if err := f.Close(); !errors.Is(err, ErrClosed) {
					t.Errorf("double close: want ErrClosed, got %v", err)
				}
				if err := f.Read(1); !errors.Is(err, ErrClosed) {
					t.Errorf("read after close: want ErrClosed, got %v", err)
				}
				if _, err := s.Open("/d/none"); !errors.Is(err, ErrNotExist) {
					t.Errorf("open missing: want ErrNotExist, got %v", err)
				}
			},
		},
		{
			name: "two-clients",
			opts: []Option{WithServers(4), WithClients(2)},
			run: func(t *testing.T, fs *FS, s *Session) {
				if err := s.Mkdir("/shared", 0); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if err := s.Create("/shared/x", 0); err != nil {
					t.Fatalf("create: %v", err)
				}
				// The second client observes the first client's namespace.
				fs.RunSession(1, func(s2 *Session) {
					es, err := s2.ReadDir("/shared")
					if err != nil || len(es) != 1 {
						t.Errorf("client 1 readdir: %d entries err=%v", len(es), err)
					}
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewSimEnv(1)
			defer e.Shutdown()
			fs, err := New(e, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			fs.RunSession(0, func(s *Session) { tc.run(t, fs, s) })
		})
	}
}

func TestOptionValidation(t *testing.T) {
	e := NewSimEnv(3)
	defer e.Shutdown()
	if _, err := New(e, WithServers(0)); err == nil {
		t.Error("WithServers(0) accepted")
	}
	if _, err := New(e, WithClients(-1)); err == nil {
		t.Error("WithClients(-1) accepted")
	}
	if _, err := New(e, WithRetryTimeout(-1)); err == nil {
		t.Error("WithRetryTimeout(-1) accepted")
	}
	fs, err := New(e, WithServers(2), WithCoresPerServer(2), WithSwitches(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fs.Cluster().Servers); got != 2 {
		t.Errorf("servers deployed: %d", got)
	}
	if got := len(fs.Cluster().Switches); got != 2 {
		t.Errorf("switches deployed: %d", got)
	}
}

// TestUnboundSession exercises FS.Session: each operation dispatches its own
// process and drives the simulation to completion.
func TestUnboundSession(t *testing.T) {
	e := NewSimEnv(5)
	defer e.Shutdown()
	fs, err := New(e, WithServers(4))
	if err != nil {
		t.Fatal(err)
	}
	s := fs.Session(0)
	if err := s.Mkdir("/u", 0); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := s.Create("/u/f", 0); err != nil {
		t.Fatalf("create: %v", err)
	}
	attr, err := s.StatDir("/u")
	if err != nil || attr.Size != 1 {
		t.Errorf("statdir: size=%d err=%v", attr.Size, err)
	}
	if _, err := s.Stat("/u/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("stat missing: %v", err)
	}
}

func TestSessionCrashRecovery(t *testing.T) {
	e := NewSimEnv(2)
	defer e.Shutdown()
	fs, err := New(e, WithServers(4))
	if err != nil {
		t.Fatal(err)
	}
	fs.RunSession(0, func(s *Session) {
		s.Mkdir("/x", 0)
		for i := 0; i < 10; i++ {
			s.Create(fmt.Sprintf("/x/f%d", i), 0)
		}
	})
	fs.CrashServer(1)
	fs.RecoverServer(1)
	e.Run()
	fs.RunSession(0, func(s *Session) {
		attr, err := s.StatDir("/x")
		if err != nil || attr.Size != 10 {
			t.Errorf("after recovery: size=%d err=%v", attr.Size, err)
		}
	})
}
