// Observability hooks: an optional trace recorder and metrics registry that
// every subsequently deployed SwitchFS cluster feeds. Package-level
// because the figure functions construct their own clusters
// internally; fsbench installs the pair before running figures and collects
// the trace file / metric snapshots after.
package figures

import (
	"switchfs/internal/metrics"
	"switchfs/internal/trace"
)

var (
	obsTrace   *trace.Recorder
	obsMetrics *metrics.Registry
)

// SetObservability installs the trace recorder and metrics registry deployed
// clusters record into. Either may be nil (disabled); pass nil, nil to turn
// observability back off. Not safe to flip while a figure is running.
func SetObservability(rec *trace.Recorder, reg *metrics.Registry) {
	obsTrace = rec
	obsMetrics = reg
}
