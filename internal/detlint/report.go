package detlint

import (
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Suppression is one //detlint: directive found in the tree: a diagnostic
// suppression (ignore) or an invariant annotation (lock-escapes). The
// inventory makes the suite's escape hatches reviewable in one place — every
// hole in the net, with its written reason.
type Suppression struct {
	File      string
	Line      int
	Kind      string   // ignore, lock-escapes
	Analyzers []string // ignore: the analyzers it silences
	Reason    string
	Malformed string // non-empty: why the directive is invalid
}

// CollectSuppressions parses every non-test .go file under root and returns
// the directive inventory, sorted by file and line. vendor/, testdata/, bin/
// and hidden directories are skipped: vendored and fixture directives are not
// this repository's policy surface.
func CollectSuppressions(root string) ([]Suppression, error) {
	var out []Suppression
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") ||
				name == "vendor" || name == "testdata" || name == "bin") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || isTestFile(name) {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("detlint report: %w", perr)
		}
		rel := path
		if r, rerr := filepath.Rel(root, path); rerr == nil {
			rel = r
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if s, ok := parseSuppression(c.Text); ok {
					s.File, s.Line = rel, fset.Position(c.Pos()).Line
					out = append(out, s)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

// parseSuppression classifies one comment as a detlint directive.
func parseSuppression(text string) (Suppression, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return Suppression{}, false
	}
	if rest, ok := cutDirective(text, directiveIgnore); ok {
		d := parseIgnore(token.NoPos, rest)
		return Suppression{Kind: directiveIgnore, Analyzers: d.analyzers,
			Reason: d.reason, Malformed: d.malformed}, true
	}
	if rest, ok := cutDirective(text, directiveLockEscape); ok {
		s := Suppression{Kind: directiveLockEscape, Reason: directiveArg(rest)}
		if s.Reason == "" {
			s.Malformed = "missing reason (want `//detlint:lock-escapes <reason>`)"
		}
		return s, true
	}
	name := text[len(directivePrefix):]
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	return Suppression{Kind: name, Malformed: "unknown directive"}, true
}

// WriteReport prints the inventory, one directive per line, and returns an
// error when any directive is malformed or a suppression carries no written
// reason — TestReportOverRepo (and `make detlint-report`) fails on that
// error, so a reason-less suppression cannot land.
func WriteReport(w io.Writer, sups []Suppression) error {
	bad := 0
	for _, s := range sups {
		detail := s.Reason
		if s.Kind == directiveIgnore {
			detail = "[" + strings.Join(s.Analyzers, ",") + "] " + s.Reason
		}
		if s.Malformed != "" {
			detail += " !! " + s.Malformed
			bad++
		}
		fmt.Fprintf(w, "%-15s %s:%d: %s\n", s.Kind, s.File, s.Line, strings.TrimSpace(detail))
	}
	fmt.Fprintf(w, "%d detlint directives\n", len(sups))
	if bad > 0 {
		return fmt.Errorf("detlint report: %d malformed or reason-less directive(s)", bad)
	}
	return nil
}
