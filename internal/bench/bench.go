// Package bench defines the machine-readable benchmark result format the
// figure harnesses emit (`fsbench -format json`) and the gate compares. A
// result file carries a schema version, the run configuration, every
// figure's table cells, per-row deterministic counters (op and packet
// counts) and per-figure metrics deltas — all virtual-time or counted, so a
// file is a pure function of the flags that produced it and two runs diff
// cell by cell. Host cost (wall time, bytes/op, allocs/op) is measured by
// benchmark/ and `go test -bench`, not here.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"switchfs/internal/stats"
)

// SchemaVersion identifies the result-file layout. Bump on incompatible
// changes; Load rejects files from other major layouts.
const SchemaVersion = 1

// Result is one benchmark run: a set of figures generated at one scale.
type Result struct {
	// Schema is SchemaVersion at write time.
	Schema int `json:"schema"`
	// Tool names the producer ("fsbench").
	Tool string `json:"tool"`
	// Scale is the scale preset the figures ran at (tiny/quick/paper).
	Scale string `json:"scale"`
	// Seed is the -seed the figures ran at.
	Seed int64 `json:"seed"`
	// GoVersion records the toolchain for cross-run context.
	GoVersion string `json:"go_version,omitempty"`
	// Figures holds one entry per generated figure, in generation order.
	Figures []Figure `json:"figures"`
}

// Figure is one figure's table plus its deterministic counters.
type Figure struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Counters carries per-row deterministic op/packet counts, aligned
	// with Rows (absent for legacy producers).
	Counters []stats.Counters `json:"counters,omitempty"`
	// Metrics is the deterministic metrics-registry delta attributed to this
	// figure (internal/metrics snapshots taken around its generation):
	// per-server op/aggregation/retry tallies and WAL records and bytes,
	// switch pipe totals, hot directory counts. Like Counters it is a pure
	// function of the seed, and Compare diffs it key by key. encoding/json
	// sorts map keys, keeping serialization deterministic.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// Validate checks structural invariants: schema version, non-empty figure
// ids, rectangular rows, and counter alignment.
func (r *Result) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("bench: schema %d, want %d", r.Schema, SchemaVersion)
	}
	if len(r.Figures) == 0 {
		return fmt.Errorf("bench: no figures")
	}
	seen := map[string]bool{}
	for i := range r.Figures {
		f := &r.Figures[i]
		if f.ID == "" {
			return fmt.Errorf("bench: figure %d has no id", i)
		}
		if seen[f.ID] {
			return fmt.Errorf("bench: duplicate figure id %q", f.ID)
		}
		seen[f.ID] = true
		if len(f.Header) == 0 {
			return fmt.Errorf("bench: figure %s has no header", f.ID)
		}
		for j, row := range f.Rows {
			if len(row) != len(f.Header) {
				return fmt.Errorf("bench: figure %s row %d has %d cells, header has %d",
					f.ID, j, len(row), len(f.Header))
			}
		}
		if len(f.Counters) != 0 && len(f.Counters) != len(f.Rows) {
			return fmt.Errorf("bench: figure %s has %d counter rows for %d rows",
				f.ID, len(f.Counters), len(f.Rows))
		}
	}
	return nil
}

// Write validates r and writes it as indented JSON via a temp-file rename,
// so a crashed run never leaves a half-written result.
func Write(path string, r *Result) error {
	data, err := Marshal(r)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Marshal renders r as indented JSON (stdout emission).
func Marshal(r *Result) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Load reads and validates a result file.
func Load(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Kind names what a Change is a change of.
type Kind string

// The kinds of Change, in the order Compare reports them within a figure.
const (
	// KindFigure is a figure present in only one run, or a changed title.
	KindFigure Kind = "figure"
	// KindHeader is a changed, added or removed column header.
	KindHeader Kind = "header"
	// KindRow is a row present in only one run.
	KindRow Kind = "row"
	// KindCell is a changed cell, label cells included.
	KindCell Kind = "cell"
	// KindCounters is a row whose deterministic op or packet counters differ.
	KindCounters Kind = "counters"
	// KindMetric is a figure metric whose value differs or that only one run
	// carries.
	KindMetric Kind = "metric"
)

// Kinds lists every Kind in report order.
var Kinds = []Kind{KindFigure, KindHeader, KindRow, KindCell, KindCounters, KindMetric}

// absent stands for the side of a Change that does not exist.
const absent = "(absent)"

// Change is one difference between a stored result and a fresh run.
type Change struct {
	Kind   Kind
	Figure string
	// Where locates the change inside the figure: "title", a column, a row
	// label, "row label/column header" or a metric key.
	Where    string
	Old, New string
}

func (c Change) String() string {
	return fmt.Sprintf("%-8s %s[%s]: %s -> %s", c.Kind, c.Figure, c.Where, c.Old, c.New)
}

// Compare diffs two runs exactly and returns every difference, in figure
// order. Every cell is virtual time or a count, a pure function of the
// flags, so the rule is equality: a cell that moved either way, a header,
// a title, a figure or row present in only one run, a row's counters, and a
// metric's value or key all count. Figures match by ID, and rows by label
// (rowLabel) when every row's label is unique in both figures, so a row
// inserted mid-figure reads as one row added; otherwise rows match by index.
// The run's schema, tool and toolchain are context, not results.
func Compare(old, new_ *Result) []Change {
	var out []Change
	add := func(k Kind, fig, where, o, n string) {
		out = append(out, Change{Kind: k, Figure: fig, Where: where, Old: o, New: n})
	}
	newByID := map[string]*Figure{}
	for i := range new_.Figures {
		newByID[new_.Figures[i].ID] = &new_.Figures[i]
	}
	for i := range old.Figures {
		of := &old.Figures[i]
		nf := newByID[of.ID]
		delete(newByID, of.ID)
		if nf == nil {
			add(KindFigure, of.ID, "figure", of.Title, absent)
			continue
		}
		if of.Title != nf.Title {
			add(KindFigure, of.ID, "title", of.Title, nf.Title)
		}
		for c := range max(len(of.Header), len(nf.Header)) {
			if o, n := at(of.Header, c), at(nf.Header, c); o != n {
				add(KindHeader, of.ID, "col "+strconv.Itoa(c), o, n)
			}
		}
		pairs, gone, added := matchRows(of, nf)
		for _, r := range gone {
			add(KindRow, of.ID, rowLabel(of, r, len(of.Rows[r])), "row "+strconv.Itoa(r), absent)
		}
		for _, r := range added {
			add(KindRow, of.ID, rowLabel(nf, r, len(nf.Rows[r])), absent, "row "+strconv.Itoa(r))
		}
		for _, p := range pairs {
			for c := range max(len(of.Rows[p[0]]), len(nf.Rows[p[1]])) {
				if o, n := at(of.Rows[p[0]], c), at(nf.Rows[p[1]], c); o != n {
					add(KindCell, of.ID, rowLabel(of, p[0], c)+"/"+at(of.Header, c), o, n)
				}
			}
		}
		for _, p := range pairs {
			if o, n := countersAt(of, p[0]), countersAt(nf, p[1]); !o.Equal(n) {
				add(KindCounters, of.ID, rowLabel(of, p[0], len(of.Rows[p[0]])), countersText(o), countersText(n))
			}
		}
		keys := make([]string, 0, len(of.Metrics)+len(nf.Metrics))
		for k := range of.Metrics {
			keys = append(keys, k)
		}
		for k := range nf.Metrics {
			if _, ok := of.Metrics[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if o, n := metricAt(of, k), metricAt(nf, k); o != n {
				add(KindMetric, of.ID, k, o, n)
			}
		}
	}
	for i := range new_.Figures {
		if nf := &new_.Figures[i]; newByID[nf.ID] != nil {
			add(KindFigure, nf.ID, "figure", absent, nf.Title)
		}
	}
	return out
}

// matchRows pairs old's rows with new's, each pair (old index, new index) in
// old's order, and lists the rows of old and of new left unpaired. When every
// row's full label is unique within each figure, the rows whose labels match
// anchor the pairing (in order: one that would cross an earlier anchor does
// not count), and between two anchors the rest pair by position, so a row
// whose label cell moved still reads as its cells; otherwise every row pairs
// by index.
func matchRows(old, new_ *Figure) (pairs [][2]int, gone, added []int) {
	anchors := append(labelAnchors(old, new_), [2]int{len(old.Rows), len(new_.Rows)})
	o, n := 0, 0
	for _, a := range anchors {
		for ; o < a[0] && n < a[1]; o, n = o+1, n+1 {
			pairs = append(pairs, [2]int{o, n})
		}
		for ; o < a[0]; o++ {
			gone = append(gone, o)
		}
		for ; n < a[1]; n++ {
			added = append(added, n)
		}
		if a[0] < len(old.Rows) {
			pairs = append(pairs, a)
		}
		o, n = a[0]+1, a[1]+1
	}
	return pairs, gone, added
}

// labelAnchors pairs the rows of old and new whose full labels match, in
// order, or returns nil when a label repeats within either figure.
func labelAnchors(old, new_ *Figure) [][2]int {
	labels := func(f *Figure) map[string]int {
		m := make(map[string]int, len(f.Rows))
		for r, row := range f.Rows {
			m[rowLabel(f, r, len(row))] = r
		}
		return m
	}
	ol, nl := labels(old), labels(new_)
	if len(ol) != len(old.Rows) || len(nl) != len(new_.Rows) {
		return nil
	}
	var anchors [][2]int
	last := -1
	for r, row := range old.Rows {
		if n, ok := nl[rowLabel(old, r, len(row))]; ok && n > last {
			anchors = append(anchors, [2]int{r, n})
			last = n
		}
	}
	return anchors
}

// at is s[i], or absent past its end.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return absent
}

// countersAt is row r's counters; a figure without counters has zero ones.
func countersAt(f *Figure, r int) stats.Counters {
	if r < len(f.Counters) {
		return f.Counters[r]
	}
	return stats.Counters{}
}

// countersText renders c with its per-server slots, which Equal compares.
func countersText(c stats.Counters) string {
	if len(c.PerServerOps) == 0 {
		return c.String()
	}
	return fmt.Sprintf("%s per_server=%v", c, c.PerServerOps)
}

// metricAt renders metric k, or absent when the figure does not carry it.
func metricAt(f *Figure, k string) string {
	if v, ok := f.Metrics[k]; ok {
		return strconv.FormatUint(v, 10)
	}
	return absent
}

// rowLabel joins row r's leading label cells before column end — op names
// and integer config columns (servers, cores, bursts). Measurement cells are
// always formatted with a decimal point, so the label ends at the first
// dotted number; a changed cell's label ends before the cell, so a row whose
// cells are all integers is not named by the value that moved. A row with no
// label cell there is named by its index.
func rowLabel(f *Figure, r, end int) string {
	var parts []string
	for _, cell := range f.Rows[r][:min(end, len(f.Rows[r]))] {
		if _, err := strconv.ParseFloat(cell, 64); err == nil && strings.Contains(cell, ".") {
			break
		}
		parts = append(parts, cell)
	}
	if len(parts) == 0 {
		return "row " + strconv.Itoa(r)
	}
	return strings.Join(parts, "/")
}
