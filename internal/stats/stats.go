// Package stats provides the latency histograms and throughput accounting
// used by the figure harnesses.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Counters are the deterministic sanity counters carried by every figure
// row: operation and packet counts summed over the row's simulation runs.
// Two runs of the same figure at the same scale and seed must produce
// identical counters, and bench comparisons (internal/bench) diff them
// exactly.
type Counters struct {
	// Ops and Errs are completed workload operations and their failures.
	Ops  uint64 `json:"ops"`
	Errs uint64 `json:"errs"`
	// PacketsDelivered / PacketsDropped are simulator network totals
	// (delivery includes every protocol hop, not just client RPCs).
	PacketsDelivered uint64 `json:"packets_delivered"`
	PacketsDropped   uint64 `json:"packets_dropped"`
	// PerServerOps tallies server-side operation handling by server slot
	// (index i = the deployment's i-th metadata server). It is the hotspot
	// signal load-aware rebalancing needs: a skewed workload shows up as a
	// skewed slice. Rows from systems that do not report per-server tallies
	// leave it nil.
	PerServerOps []uint64 `json:"per_server_ops,omitempty"`
}

// Add folds another counter set into c.
func (c *Counters) Add(o Counters) {
	c.Ops += o.Ops
	c.Errs += o.Errs
	c.PacketsDelivered += o.PacketsDelivered
	c.PacketsDropped += o.PacketsDropped
	if len(o.PerServerOps) > len(c.PerServerOps) {
		grown := make([]uint64, len(o.PerServerOps))
		copy(grown, c.PerServerOps)
		c.PerServerOps = grown
	}
	for i, v := range o.PerServerOps {
		c.PerServerOps[i] += v
	}
}

// Sub returns c - o component-wise: the delta between two cumulative
// snapshots (timeline windows bucket a run's counters this way).
func (c Counters) Sub(o Counters) Counters {
	out := Counters{
		Ops:              c.Ops - o.Ops,
		Errs:             c.Errs - o.Errs,
		PacketsDelivered: c.PacketsDelivered - o.PacketsDelivered,
		PacketsDropped:   c.PacketsDropped - o.PacketsDropped,
	}
	if len(c.PerServerOps) > 0 {
		out.PerServerOps = make([]uint64, len(c.PerServerOps))
		copy(out.PerServerOps, c.PerServerOps)
		for i, v := range o.PerServerOps {
			if i < len(out.PerServerOps) {
				out.PerServerOps[i] -= v
			}
		}
	}
	return out
}

// Equal reports component-wise equality; PerServerOps must match slot for
// slot (nil and empty are the same slice).
func (c Counters) Equal(o Counters) bool {
	return c.Ops == o.Ops && c.Errs == o.Errs &&
		c.PacketsDelivered == o.PacketsDelivered && c.PacketsDropped == o.PacketsDropped &&
		slices.Equal(c.PerServerOps, o.PerServerOps)
}

// IsZero reports an all-zero counter set (a row with no tallied runs).
func (c Counters) IsZero() bool {
	return c.Equal(Counters{PerServerOps: make([]uint64, len(c.PerServerOps))})
}

// String renders the counters compactly for table footers and logs.
func (c Counters) String() string {
	return fmt.Sprintf("ops=%d errs=%d pkts=%d dropped=%d",
		c.Ops, c.Errs, c.PacketsDelivered, c.PacketsDropped)
}

// HistCap bounds the samples a Hist retains. Below the cap every sample is
// kept and percentiles are exact; beyond it a deterministic reservoir
// (Algorithm R driven by a fixed-seed LCG — no process randomness, so two
// same-seed runs retain identical samples) keeps a uniform subset, while
// N, Mean and the sum stay exact. 64Ki float64s is 512KiB per histogram —
// what lets the 10⁶-session scale figure record per-op latencies without
// O(ops) memory.
const HistCap = 65536

// Hist is a latency recorder: exact counts and mean always, exact
// percentiles up to HistCap samples, reservoir-estimated beyond.
type Hist struct {
	samples []float64
	sum     float64
	n       uint64
	lcg     uint64
	sorted  bool
}

// Add records one sample.
func (h *Hist) Add(v float64) {
	h.sum += v
	h.addSample(v)
}

// addSample inserts into the bounded reservoir and bumps n, leaving sum to
// the caller (Merge re-feeds retained samples whose sum is already folded).
func (h *Hist) addSample(v float64) {
	h.n++
	if len(h.samples) < HistCap {
		h.samples = append(h.samples, v)
		h.sorted = false
		return
	}
	// Algorithm R: replace a uniformly chosen slot with probability cap/n.
	h.lcg = h.lcg*6364136223846793005 + 1442695040888963407
	if j := h.lcg % h.n; j < HistCap {
		h.samples[j] = v
		h.sorted = false
	}
}

// N returns the exact sample count (including reservoir-discarded samples).
func (h *Hist) N() int { return int(h.n) }

// Retained returns how many samples the reservoir currently holds.
func (h *Hist) Retained() int { return len(h.samples) }

// Mean returns the exact average, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Percentile returns the q-quantile (q in [0,1]) by nearest-rank over the
// retained samples (exact below HistCap).
func (h *Hist) Percentile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	i := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(h.samples) {
		i = len(h.samples) - 1
	}
	return h.samples[i]
}

// Max returns the largest retained sample.
func (h *Hist) Max() float64 { return h.Percentile(1) }

// Merge folds another histogram into this one: retained samples feed the
// reservoir; count and sum stay exact even when o itself was capped.
func (h *Hist) Merge(o *Hist) {
	for _, v := range o.samples {
		h.addSample(v)
	}
	// addSample counted the retained samples; account for the ones o's own
	// reservoir discarded so N stays exact, and fold the exact sum.
	h.n += o.n - uint64(len(o.samples))
	h.sum += o.sum
}

// Summary renders mean/p50/p90/p99 in microseconds for latency histograms
// holding nanosecond samples.
func (h *Hist) Summary() string {
	const us = 1000.0
	return fmt.Sprintf("mean=%.1fµs p50=%.1fµs p90=%.1fµs p99=%.1fµs (n=%d)",
		h.Mean()/us, h.Percentile(0.50)/us, h.Percentile(0.90)/us, h.Percentile(0.99)/us, h.N())
}
