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
	// per-server op/aggregation/retry tallies, switch pipe totals, hot
	// directory counts. Additive — absent for legacy producers — and, like
	// Counters, a pure function of the seed, so comparisons may diff it
	// exactly. encoding/json sorts map keys, keeping serialization
	// deterministic.
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

// Direction classifies what "worse" means for a figure's numeric cells.
type Direction int

// Cell-metric directions.
const (
	// HigherBetter marks throughput-style figures.
	HigherBetter Direction = iota
	// LowerBetter marks latency/time-style figures.
	LowerBetter
	// Neutral marks figures whose direction could not be inferred; deltas
	// are reported but never flagged as regressions.
	Neutral
)

// DirectionOf infers a metric direction from a title or column header's
// units ("(Kops/s)", "mean µs", "recovery ms", ...).
func DirectionOf(title string) Direction {
	t := strings.ToLower(title)
	switch {
	case strings.Contains(t, "ops/s") || strings.Contains(t, "throughput") ||
		strings.Contains(t, "avail"):
		return HigherBetter
	case strings.Contains(t, "µs") || strings.Contains(t, "latency") ||
		strings.Contains(t, " ms") || strings.Contains(t, "seconds"):
		return LowerBetter
	default:
		return Neutral
	}
}

// columnDirection resolves the direction of one cell column: the column
// header's own units win (figures like Fig14 mix Kops/s and µs columns in
// one table), falling back to the figure title.
func columnDirection(f *Figure, col int, titleDir Direction) Direction {
	if col < len(f.Header) {
		if d := DirectionOf(f.Header[col]); d != Neutral {
			return d
		}
	}
	return titleDir
}

// Delta is one compared cell.
type Delta struct {
	Figure string  `json:"figure"`
	Row    int     `json:"row"`
	Col    int     `json:"col"`
	Label  string  `json:"label"` // row labels + column header
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Pct is the relative change in percent ((new-old)/old).
	Pct float64 `json:"pct"`
	// Regression is true when the change exceeds the threshold in the
	// figure's worse direction.
	Regression bool `json:"regression"`
}

// CompareOpts tunes Compare.
type CompareOpts struct {
	// ThresholdPct flags cells whose metric moved more than this many
	// percent in the worse direction (default 10).
	ThresholdPct float64
	// CheckCounters additionally reports rows whose deterministic op or
	// packet counters differ at all — configuration drift, not noise.
	CheckCounters bool
}

// CounterDrift is a row whose deterministic counters changed between runs.
type CounterDrift struct {
	Figure string         `json:"figure"`
	Row    int            `json:"row"`
	Label  string         `json:"label"`
	Old    stats.Counters `json:"old"`
	New    stats.Counters `json:"new"`
}

// MetricDrift is a figure-level metrics-registry key whose deterministic
// value changed between runs (absent on either side reads as 0).
type MetricDrift struct {
	Figure string `json:"figure"`
	Key    string `json:"key"`
	Old    uint64 `json:"old"`
	New    uint64 `json:"new"`
}

// RowChange identifies a row present in only one of the compared runs.
type RowChange struct {
	Figure string `json:"figure"`
	Row    int    `json:"row"`
	Label  string `json:"label"`
}

// Comparison is the outcome of Compare.
type Comparison struct {
	Deltas []Delta        `json:"deltas"`
	Drift  []CounterDrift `json:"drift,omitempty"`
	// MetricsDrift lists figure-level metrics keys that changed. Like
	// counter drift it is deterministic state, so any difference is
	// configuration drift or nondeterminism — but it is only checked when
	// BOTH runs carry metrics for the figure, so legacy baselines and
	// metrics-off runs compare clean.
	MetricsDrift []MetricDrift `json:"metrics_drift,omitempty"`
	// MissingFigures lists old figures absent from the new run.
	MissingFigures []string `json:"missing_figures,omitempty"`
	// AddedFigures lists new figures absent from the old run.
	AddedFigures []string `json:"added_figures,omitempty"`
	// RowsRemoved / RowsAdded list rows present in only the old / only the
	// new run. At a fixed scale and seed generation is deterministic, so any
	// entry here is a shape change — a dropped or grown sweep — and gates
	// the comparison rather than being silently skipped.
	RowsRemoved []RowChange `json:"rows_removed,omitempty"`
	RowsAdded   []RowChange `json:"rows_added,omitempty"`
}

// ShapeChanges reports whether the two runs disagree on which figures or
// rows exist at all.
func (c *Comparison) ShapeChanges() bool {
	return len(c.MissingFigures) > 0 || len(c.AddedFigures) > 0 ||
		len(c.RowsRemoved) > 0 || len(c.RowsAdded) > 0
}

// Regressions returns only the cells flagged as regressions.
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Compare diffs two runs figure by figure and cell by cell. Figures match
// by ID, rows by index (generation is deterministic at a fixed scale), and
// only cells parsing as numbers in both runs are compared.
func Compare(old, new_ *Result, opts CompareOpts) *Comparison {
	if opts.ThresholdPct <= 0 {
		opts.ThresholdPct = 10
	}
	newByID := map[string]*Figure{}
	for i := range new_.Figures {
		newByID[new_.Figures[i].ID] = &new_.Figures[i]
	}
	oldByID := map[string]bool{}
	for i := range old.Figures {
		oldByID[old.Figures[i].ID] = true
	}
	cmp := &Comparison{}
	for i := range new_.Figures {
		if !oldByID[new_.Figures[i].ID] {
			cmp.AddedFigures = append(cmp.AddedFigures, new_.Figures[i].ID)
		}
	}
	for i := range old.Figures {
		of := &old.Figures[i]
		nf := newByID[of.ID]
		if nf == nil {
			cmp.MissingFigures = append(cmp.MissingFigures, of.ID)
			continue
		}
		dir := DirectionOf(of.Title)
		rows := len(of.Rows)
		if len(nf.Rows) < rows {
			rows = len(nf.Rows)
		}
		for r := rows; r < len(of.Rows); r++ {
			cmp.RowsRemoved = append(cmp.RowsRemoved, RowChange{
				Figure: of.ID, Row: r, Label: rowLabel(of, r),
			})
		}
		for r := rows; r < len(nf.Rows); r++ {
			cmp.RowsAdded = append(cmp.RowsAdded, RowChange{
				Figure: nf.ID, Row: r, Label: rowLabel(nf, r),
			})
		}
		if opts.CheckCounters && len(of.Metrics) > 0 && len(nf.Metrics) > 0 {
			compareMetrics(cmp, of, nf)
		}
		for r := 0; r < rows; r++ {
			label := rowLabel(of, r)
			if opts.CheckCounters && r < len(of.Counters) && r < len(nf.Counters) &&
				!of.Counters[r].Equal(nf.Counters[r]) {
				cmp.Drift = append(cmp.Drift, CounterDrift{
					Figure: of.ID, Row: r, Label: label,
					Old: of.Counters[r], New: nf.Counters[r],
				})
			}
			cols := len(of.Rows[r])
			if len(nf.Rows[r]) < cols {
				cols = len(nf.Rows[r])
			}
			for c := 0; c < cols; c++ {
				ov, oerr := strconv.ParseFloat(of.Rows[r][c], 64)
				nv, nerr := strconv.ParseFloat(nf.Rows[r][c], 64)
				if oerr != nil || nerr != nil {
					continue
				}
				if ov == nv {
					continue
				}
				pct := 0.0
				if ov != 0 {
					pct = (nv - ov) / ov * 100
				}
				worse := false
				switch columnDirection(of, c, dir) {
				case HigherBetter:
					worse = pct < -opts.ThresholdPct
				case LowerBetter:
					worse = pct > opts.ThresholdPct
				}
				cmp.Deltas = append(cmp.Deltas, Delta{
					Figure: of.ID, Row: r, Col: c,
					Label: label + "/" + headerOf(of, c),
					Old:   ov, New: nv, Pct: pct,
					Regression: worse,
				})
			}
		}
	}
	return cmp
}

// compareMetrics diffs the deterministic figure-level metrics maps key by
// key (union of both sides, sorted; a key absent on one side reads as 0).
func compareMetrics(cmp *Comparison, of, nf *Figure) {
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
		if of.Metrics[k] != nf.Metrics[k] {
			cmp.MetricsDrift = append(cmp.MetricsDrift, MetricDrift{
				Figure: of.ID, Key: k, Old: of.Metrics[k], New: nf.Metrics[k],
			})
		}
	}
}

// rowLabel joins a row's leading label cells — op names and integer config
// columns (servers, cores, bursts). Measurement cells are always formatted
// with a decimal point, so the label ends at the first dotted number.
func rowLabel(f *Figure, r int) string {
	var parts []string
	for _, cell := range f.Rows[r] {
		if _, err := strconv.ParseFloat(cell, 64); err == nil && strings.Contains(cell, ".") {
			break
		}
		parts = append(parts, cell)
	}
	if len(parts) == 0 && len(f.Rows[r]) > 0 {
		parts = append(parts, f.Rows[r][0])
	}
	return strings.Join(parts, "/")
}

func headerOf(f *Figure, c int) string {
	if c < len(f.Header) {
		return f.Header[c]
	}
	return strconv.Itoa(c)
}
