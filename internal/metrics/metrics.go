// Package metrics is a small deterministic registry of named counters.
// Everything it stores derives from deterministic protocol counters, so
// snapshots are a pure function of the simulation seed and can be carried
// into bench rows and compared byte-for-byte across runs.
//
// The registry is collection-oriented, not hot-path-oriented: subsystems
// keep their own cheap structured counters (server.Stats, datanode.Stats,
// switch tallies) and pour them into a Registry at snapshot points
// (cluster.FillMetrics, called at a figure deployment's teardown and by
// benchmark/).
//
// A nil *Registry is a valid disabled registry: every method no-ops.
package metrics

// Registry holds named counters.
type Registry struct {
	counters map[string]uint64
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{counters: make(map[string]uint64)}
}

// Add increments a counter.
func (r *Registry) Add(name string, delta uint64) {
	if r == nil || delta == 0 {
		return
	}
	r.counters[name] += delta
}

// Snapshot copies the registry into one name→value map.
func (r *Registry) Snapshot() map[string]uint64 {
	if r == nil {
		return nil
	}
	out := make(map[string]uint64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Delta returns after-minus-before for every key of after, dropping zeros.
// A key that fell (a restarted server counts again from zero) is taken at
// its after value. Used to attribute one shared registry's growth to the
// figure that ran in between snapshots.
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
