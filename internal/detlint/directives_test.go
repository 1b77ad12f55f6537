package detlint

import "testing"

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		rest      string
		analyzers int
		malformed bool
	}{
		{"hostapi -- guarded, never parks", 1, false},
		{"maprange,dettaint -- sorted upstream", 2, false},
		{"hostapi", 1, true},            // no reason
		{"hostapi --", 1, true},         // empty reason
		{"-- some reason", 0, true},     // no analyzer
		{"nosuch -- a reason", 1, true}, // unknown analyzer
		{"hostapi --- odd", 1, false},   // "--- odd" still cuts at "--", reason "- odd"
	}
	for _, c := range cases {
		d := parseIgnore(0, c.rest)
		if got := len(d.analyzers); got != c.analyzers {
			t.Errorf("parseIgnore(%q): %d analyzers, want %d", c.rest, got, c.analyzers)
		}
		if got := d.malformed != ""; got != c.malformed {
			t.Errorf("parseIgnore(%q): malformed=%q, want malformed=%v", c.rest, d.malformed, c.malformed)
		}
	}
}

func TestCutDirective(t *testing.T) {
	if rest, ok := cutDirective("//detlint:ignore hostapi -- x", "ignore"); !ok || rest != "hostapi -- x" {
		t.Errorf("cutDirective: got %q, %v", rest, ok)
	}
	if _, ok := cutDirective("//detlint:ignorex", "ignore"); ok {
		t.Error("cutDirective: ignorex must not match ignore")
	}
	if _, ok := cutDirective("// detlint:ignore x -- y", "ignore"); ok {
		t.Error("cutDirective: spaced comment is not a directive")
	}
}
