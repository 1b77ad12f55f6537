package detlint

import (
	"go/ast"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Detdirective validates the suite's own directives in every package:
// suppressions must name known analyzers and carry a written reason, and
// lock-escapes annotations must carry one too and sit on a function
// declaration. A suppression that cannot justify itself is a diagnostic —
// the suppression policy is part of the invariant. It parses each directive
// exactly as `detlint -report` does (parseSuppression).
var Detdirective = &analysis.Analyzer{
	Name:     "detdirective",
	Doc:      "validate //detlint: directives (ignore reasons, annotation placement)",
	Requires: []*analysis.Analyzer{summaryAnalyzer},
	Run:      runDetdirective,
}

func runDetdirective(pass *analysis.Pass) (any, error) {
	s := summaryOf(pass)
	r := s.reporter(pass)
	for _, f := range s.files {
		// Doc comments attached to function declarations are the legal homes
		// of every directive but ignore; remember their comment groups.
		funcDocs := make(map[*ast.CommentGroup]bool)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				sup, ok := parseSuppression(c.Text)
				switch {
				case !ok:
					continue
				case !slices.Contains(directiveKinds, sup.Kind):
					r.reportf(c.Pos(), "unknown detlint directive %q (known: %s)", sup.Kind, strings.Join(directiveKinds, ", "))
					continue
				case sup.Malformed != "":
					r.reportf(c.Pos(), "malformed //detlint:%s: %s", sup.Kind, sup.Malformed)
				}
				if sup.Kind != directiveIgnore && !funcDocs[cg] {
					r.reportf(c.Pos(), "//detlint:%s must be in a function declaration's doc comment", sup.Kind)
				}
			}
		}
	}
	return nil, nil
}
