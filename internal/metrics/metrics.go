// Package metrics is a small deterministic metrics registry: named counters,
// gauges, and virtual-time histograms. Everything it stores derives from
// virtual time and deterministic protocol counters, so snapshots are a pure
// function of the simulation seed and can be carried into bench rows and
// compared byte-for-byte across runs.
//
// The registry is collection-oriented, not hot-path-oriented: subsystems
// keep their own cheap structured counters (server.Stats, datanode.Stats,
// switch tallies) and pour them into a Registry at snapshot points
// (figures.runOn, fsctl trace). Per-directory tallies — the hotspot signal
// the auto-rebalance roadmap item needs — are the one exception: servers
// feed them during the run, keyed by directory, and FillFrom-style dumps
// surface the hottest entries.
//
// A nil *Registry is a valid disabled registry: every method no-ops.
package metrics

import (
	"sort"

	"switchfs/internal/stats"
)

// Registry holds named metrics.
type Registry struct {
	counters map[string]uint64
	gauges   map[string]uint64
	hists    map[string]*stats.Hist
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		gauges:   make(map[string]uint64),
		hists:    make(map[string]*stats.Hist),
	}
}

// Add increments a counter.
func (r *Registry) Add(name string, delta uint64) {
	if r == nil || delta == 0 {
		return
	}
	r.counters[name] += delta
}

// Inc increments a counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// SetGauge records a point-in-time value (last write wins).
func (r *Registry) SetGauge(name string, v uint64) {
	if r == nil {
		return
	}
	r.gauges[name] = v
}

// Observe adds a sample (virtual nanoseconds, typically) to a histogram.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	h := r.hists[name]
	if h == nil {
		h = &stats.Hist{}
		r.hists[name] = h
	}
	h.Add(v)
}

// Snapshot flattens the registry into one name→value map: counters and
// gauges as-is, histograms as <name>.n / <name>.p50 / <name>.p99 (sample
// values truncated to uint64). The map is a copy.
func (r *Registry) Snapshot() map[string]uint64 {
	if r == nil {
		return nil
	}
	out := make(map[string]uint64, len(r.counters)+len(r.gauges)+3*len(r.hists))
	for k, v := range r.counters {
		out[k] = v
	}
	for k, v := range r.gauges {
		out[k] = v
	}
	for k, h := range r.hists {
		if h.N() == 0 {
			continue
		}
		out[k+".n"] = uint64(h.N())
		out[k+".p50"] = uint64(h.Percentile(0.5))
		out[k+".p99"] = uint64(h.Percentile(0.99))
	}
	return out
}

// Delta returns after-minus-before for every key of after, dropping zeros.
// Non-monotonic keys (gauges, percentiles) fall back to their after value
// when subtraction would underflow. Used to attribute one shared registry's
// growth to the figure that ran in between snapshots.
func Delta(before, after map[string]uint64) map[string]uint64 {
	if len(after) == 0 {
		return nil
	}
	out := make(map[string]uint64)
	for k, v := range after {
		if b, ok := before[k]; ok && b <= v {
			v -= b
		}
		if v != 0 {
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Names returns every metric name in the registry, sorted.
func (r *Registry) Names() []string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
