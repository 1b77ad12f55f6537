package detlint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Directives understood by the suite:
//
//	//detlint:ignore <analyzer>[,<analyzer>...] -- <reason>
//	    Suppresses matching diagnostics reported on the same line or on the
//	    line immediately below the comment. The reason is mandatory: a
//	    suppression without one is itself a diagnostic (detdirective).
//
//	//detlint:lock-escapes <reason>
//	    On a function declaration: the function intentionally returns or
//	    hands off a lock it acquired (lockTxnKeys, runAggregation); lockpair
//	    skips it. The reason is mandatory.
const (
	directivePrefix     = "//detlint:"
	directiveIgnore     = "ignore"
	directiveLockEscape = "lock-escapes"
)

// directiveKinds are the directives the suite understands.
var directiveKinds = []string{directiveIgnore, directiveLockEscape}

// analyzerNames is the set of valid targets for //detlint:ignore.
var analyzerNames = map[string]bool{
	"maprange":     true,
	"hostapi":      true,
	"detdirective": true,
	"lockpair":     true,
	"sendalias":    true,
	"dettaint":     true,
}

// ignoreDirective is one parsed //detlint:ignore comment.
type ignoreDirective struct {
	pos       token.Pos
	analyzers []string
	reason    string
	malformed string // non-empty: why the directive is invalid
}

// parseIgnore parses the text after "//detlint:ignore".
func parseIgnore(pos token.Pos, rest string) ignoreDirective {
	d := ignoreDirective{pos: pos}
	names, reason, ok := strings.Cut(rest, "--")
	d.reason = strings.TrimSpace(reason)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		d.analyzers = append(d.analyzers, n)
		if !analyzerNames[n] {
			d.malformed = "unknown analyzer " + quote(n)
		}
	}
	if len(d.analyzers) == 0 {
		d.malformed = "no analyzer named"
	}
	if !ok || d.reason == "" {
		d.malformed = "missing reason (want `//detlint:ignore <analyzer> -- <reason>`)"
	}
	return d
}

func quote(s string) string { return "\"" + s + "\"" }

// ignoreIndex maps (file, line) to the ignore directives that govern that
// line. A directive on line N governs diagnostics on lines N and N+1, so it
// can trail the offending statement or sit on its own line above it.
type ignoreIndex struct {
	fset *token.FileSet
	m    map[string]map[int][]*ignoreDirective
}

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{fset: fset, m: make(map[string]map[int][]*ignoreDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := cutDirective(c.Text, directiveIgnore)
				if !ok {
					continue
				}
				d := parseIgnore(c.Pos(), rest)
				p := fset.Position(c.Pos())
				byLine := idx.m[p.Filename]
				if byLine == nil {
					byLine = make(map[int][]*ignoreDirective)
					idx.m[p.Filename] = byLine
				}
				byLine[p.Line] = append(byLine[p.Line], &d)
				byLine[p.Line+1] = append(byLine[p.Line+1], &d)
			}
		}
	}
	return idx
}

// suppressed reports whether a diagnostic from analyzer at pos is covered by
// a well-formed ignore directive.
func (idx *ignoreIndex) suppressed(analyzer string, pos token.Pos) bool {
	p := idx.fset.Position(pos)
	for _, d := range idx.m[p.Filename][p.Line] {
		if d.malformed != "" {
			continue
		}
		for _, a := range d.analyzers {
			if a == analyzer {
				return true
			}
		}
	}
	return false
}

// cutDirective returns the text after "//detlint:<name>" when the comment is
// that directive (name terminated by end-of-comment or whitespace).
func cutDirective(comment, name string) (rest string, ok bool) {
	if !strings.HasPrefix(comment, directivePrefix) {
		return "", false
	}
	body := comment[len(directivePrefix):]
	if body == name {
		return "", true
	}
	if strings.HasPrefix(body, name) && (body[len(name)] == ' ' || body[len(name)] == '\t') {
		return strings.TrimSpace(body[len(name):]), true
	}
	return "", false
}

// reporter wraps pass.Reportf with ignore-directive filtering.
type reporter struct {
	pass *analysis.Pass
	idx  *ignoreIndex
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	if r.idx.suppressed(r.pass.Analyzer.Name, pos) {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

// filesOf returns the pass's syntax trees minus test files.
func filesOf(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if !isTestFile(pass.Fset.Position(f.Pos()).Filename) {
			out = append(out, f)
		}
	}
	return out
}

// funcLockEscapes reports whether fn's doc comment carries a lock-escapes
// annotation. The returned reason may be empty (malformed); detdirective
// reports that, lockpair still honours the escape so one problem yields one
// diagnostic.
func funcLockEscapes(fn *ast.FuncDecl) (reason string, ok bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if rest, found := cutDirective(c.Text, directiveLockEscape); found {
			return directiveArg(rest), true
		}
	}
	return "", false
}

// directiveArg trims a directive's argument text, dropping any nested
// comment (`// …`): a reason cannot contain one, and the dtest suites hang
// their `// want` markers there.
func directiveArg(rest string) string {
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	return strings.TrimSpace(rest)
}
