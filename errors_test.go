package switchfs

import (
	"errors"
	"strings"
	"testing"
)

// TestPathErrorWrapping drives real failures through the Session API and
// asserts every error arrives as a *PathError (or *LinkError for two-path
// operations) wrapping the right sentinel — surviving errors.Is and
// errors.As exactly like package os errors.
func TestPathErrorWrapping(t *testing.T) {
	e := NewSimEnv(7)
	defer e.Shutdown()
	fs, err := New(e, WithServers(4), WithClients(1))
	if err != nil {
		t.Fatal(err)
	}
	fs.RunSession(0, func(s *Session) {
		// Not Fatalf: this body runs on a simulator worker coroutine, not
		// on the test's goroutine, which is where FailNow must be called.
		if err := s.Mkdir("/d", 0); err != nil {
			t.Errorf("setup mkdir: %v", err)
			return
		}
		if err := s.Create("/d/f", 0); err != nil {
			t.Errorf("setup create: %v", err)
			return
		}

		cases := []struct {
			name     string
			op       string // expected PathError.Op / LinkError.Op
			sentinel error
			twoPath  bool
			call     func() error
		}{
			{"stat missing", "stat", ErrNotExist, false,
				func() error { _, err := s.Stat("/d/none"); return err }},
			{"create existing", "create", ErrExist, false,
				func() error { return s.Create("/d/f", 0) }},
			{"mkdir existing", "mkdir", ErrExist, false,
				func() error { return s.Mkdir("/d", 0) }},
			{"rmdir non-empty", "rmdir", ErrNotEmpty, false,
				func() error { return s.Rmdir("/d") }},
			{"rmdir missing", "rmdir", ErrNotExist, false,
				func() error { return s.Rmdir("/nope") }},
			{"remove missing", "remove", ErrNotExist, false,
				func() error { return s.Remove("/d/none") }},
			{"readdir missing", "readdir", ErrNotExist, false,
				func() error { _, err := s.ReadDir("/gone"); return err }},
			{"open missing", "open", ErrNotExist, false,
				func() error { _, err := s.Open("/d/none"); return err }},
			{"rename missing source", "rename", ErrNotExist, true,
				func() error { return s.Rename("/d/none", "/d/elsewhere") }},
			{"link missing source", "link", ErrNotExist, true,
				func() error { return s.Link("/d/none", "/d/l") }},
		}
		for _, tc := range cases {
			err := tc.call()
			if err == nil {
				t.Errorf("%s: expected an error", tc.name)
				continue
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("%s: errors.Is(%v, %v) = false", tc.name, err, tc.sentinel)
			}
			if tc.twoPath {
				var le *LinkError
				if !errors.As(err, &le) {
					t.Errorf("%s: not a *LinkError: %T", tc.name, err)
					continue
				}
				if le.Op != tc.op || le.Old == "" || le.New == "" {
					t.Errorf("%s: LinkError fields = %+v", tc.name, le)
				}
				if !errors.Is(le.Err, tc.sentinel) {
					t.Errorf("%s: unwrapped Err %v is not %v", tc.name, le.Err, tc.sentinel)
				}
				var pe *PathError
				if errors.As(err, &pe) {
					t.Errorf("%s: two-path error matched *PathError too", tc.name)
				}
			} else {
				var pe *PathError
				if !errors.As(err, &pe) {
					t.Errorf("%s: not a *PathError: %T", tc.name, err)
					continue
				}
				if pe.Op != tc.op || pe.Path == "" {
					t.Errorf("%s: PathError fields = %+v", tc.name, pe)
				}
				if !errors.Is(pe.Err, tc.sentinel) {
					t.Errorf("%s: unwrapped Err %v is not %v", tc.name, pe.Err, tc.sentinel)
				}
			}
			if !strings.Contains(err.Error(), tc.op) {
				t.Errorf("%s: Error() = %q, missing op %q", tc.name, err.Error(), tc.op)
			}
		}

		// Success paths must return untyped nil, not a typed nil wrapper.
		if err := s.Chmod("/d/f", 0o600); err != nil {
			t.Errorf("chmod success returned %v", err)
		}
	})
}

// TestSentinelAliases pins the public sentinels to internal/core's values:
// a *PathError built by the session machinery must match the public aliases
// (callers never import internal/core).
func TestSentinelAliases(t *testing.T) {
	pairs := []struct {
		name string
		err  error
	}{
		{"ErrExist", ErrExist},
		{"ErrNotExist", ErrNotExist},
		{"ErrNotEmpty", ErrNotEmpty},
		{"ErrNotDir", ErrNotDir},
		{"ErrIsDir", ErrIsDir},
		{"ErrInvalid", ErrInvalid},
		{"ErrTimeout", ErrTimeout},
		{"ErrClosed", ErrClosed},
	}
	for _, p := range pairs {
		wrapped := &PathError{Op: "op", Path: "/x", Err: p.err}
		if !errors.Is(wrapped, p.err) {
			t.Errorf("%s does not survive PathError wrapping", p.name)
		}
		linked := &LinkError{Op: "op", Old: "/a", New: "/b", Err: p.err}
		if !errors.Is(linked, p.err) {
			t.Errorf("%s does not survive LinkError wrapping", p.name)
		}
	}
}
