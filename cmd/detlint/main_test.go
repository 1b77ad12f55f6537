package main

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetTree is the static gate: it builds this command and runs the suite
// under `go vet -vettool` over every package of the module, offline through
// vendor/. The tree must vet clean: every diagnostic is fixed or carries a
// //detlint:ignore with a written reason.
func TestVetTree(t *testing.T) {
	trackTree(t, "../..")
	tool := filepath.Join(t.TempDir(), "detlint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building detlint: %v\n%s", err, out)
	}
	vet := func(pkg string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+tool, pkg)
		cmd.Dir = "../.."
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	if out, err := vet("./..."); err != nil {
		t.Fatalf("detlint over the tree: %v\n%s", err, out)
	}
	// A gate that cannot fail is not a gate: the one package under testdata
	// carries a reason-less suppression, which must fail the same run.
	t.Run("can-fail", func(t *testing.T) {
		out, err := vet("./cmd/detlint/testdata/broken")
		if err == nil {
			t.Fatalf("the broken fixture vetted clean:\n%s", out)
		}
		if !strings.Contains(out, "broken.go:6:1: malformed //detlint:ignore: missing reason") {
			t.Fatalf("the broken fixture failed without naming its diagnostic: %v\n%s", err, out)
		}
	})
}

// trackTree reads every file that `go vet ./...` reads: each .go file of the
// module (vendor/ and testdata/ included), go.mod and vendor/modules.txt. The
// vet run happens in a child process, which `go test`'s result cache does not
// see; files this process opens — and the listings of the directories it
// walks — become part of the cache key, so an edit anywhere in the tree runs
// the gate again instead of replaying a cached pass.
func trackTree(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "modules.txt" {
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatalf("reading the tree: %v", err)
	}
}
