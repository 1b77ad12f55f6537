package detlint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestReportInventory(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": `package a

//detlint:ignore maprange -- keys are re-sorted downstream
var x int

// f hands its lock to the caller.
//
//detlint:lock-escapes the lock transfers to the caller
func f() {}
`,
		"a/a_test.go": `package a

//detlint:ignore maprange
var y int
`,
		"vendor/v/v.go": `package v

//detlint:ignore hostapi
var z int
`,
	})
	sups, err := CollectSuppressions(root)
	if err != nil {
		t.Fatal(err)
	}
	// The reason-less directives in a_test.go and vendor/ are out of scope:
	// analyzers never see test files, and vendored policy is not ours.
	if len(sups) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(sups), sups)
	}
	var b strings.Builder
	if err := WriteReport(&b, sups); err != nil {
		t.Fatalf("well-formed inventory rejected: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"ignore", "a/a.go:3", "[maprange] keys are re-sorted downstream",
		"lock-escapes", "a/a.go:8", "the lock transfers to the caller",
		"2 detlint directives",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportRejectsReasonless(t *testing.T) {
	root := writeTree(t, map[string]string{
		"b/b.go": `package b

//detlint:ignore maprange
var x int
`,
	})
	sups, err := CollectSuppressions(root)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteReport(&b, sups); err == nil {
		t.Fatalf("reason-less suppression accepted:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "missing reason") {
		t.Errorf("report does not name the problem:\n%s", b.String())
	}
}

func TestReportOverRepo(t *testing.T) {
	// The real tree's inventory must stay clean: this is the tier-1 form of
	// `make detlint-report` (`detlint -report`).
	sups, err := CollectSuppressions("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(sups) == 0 {
		t.Fatal("no directives found walking the repo — wrong root?")
	}
	var b strings.Builder
	if err := WriteReport(&b, sups); err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	// The inventory is held at its size: the rules the code keeps itself (the
	// dispatch's replay-or-begin step, log-then-send) retired the directives
	// that proved them after the fact, and an escape hatch coming back must
	// be a decision, made here.
	const maxDirectives = 4
	if len(sups) > maxDirectives {
		t.Errorf("%d detlint directives in the tree, want at most %d:\n%s", len(sups), maxDirectives, b.String())
	}
	// One runtime, one runnable process: nothing outside the fixtures has a
	// second goroutine to guard against or a host clock to read, so a host
	// API is never the answer.
	for _, s := range sups {
		if slices.Contains(s.Analyzers, "hostapi") {
			t.Errorf("%s:%d suppresses hostapi (%s): use the env primitives instead", s.File, s.Line, s.Reason)
		}
	}
}
