package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// metricDef describes one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions; the smoke test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// src is where the number comes from: V virtual clock and H host clock
	// for the end-to-end metrics; U untraced pass, T traced pass and P leaf
	// probe for the per-layer ones.
	src byte
	// exact marks numbers that are a pure function of (code, seed): they
	// must repeat exactly across repetitions and compare exactly with
	// -against.
	exact bool
	// bound is the share of the previous value by which an end-to-end
	// metric may get worse before -against reports REGRESS.
	bound float64
}

// Bounds. Virtual metrics repeat exactly for one seed, so 1 % only ever
// matters between commits; the driver of BENCHMARK.json compares medians
// over different seeds, and the bounds there are wider (see README).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", src: 'H', bound: 0.10},
	{name: "sim_kops", unit: "Kops/s", better: "higher", src: 'V', exact: true, bound: 0.01},
	{name: "sim_p50_us", unit: "us", better: "lower", src: 'V', exact: true, bound: 0.01},
	{name: "sim_p99_us", unit: "us", better: "lower", src: 'V', exact: true, bound: 0.01},
	{name: "sim_p999_us", unit: "us", better: "lower", src: 'V', exact: true, bound: 0.01},
	{name: "host_us_per_op", unit: "us/op", better: "lower", src: 'H', bound: 0.10},
	{name: "allocs_per_op", unit: "allocs/op", better: "lower", src: 'H', bound: 0.03},
	{name: "bytes_per_op", unit: "B/op", better: "lower", src: 'H', bound: 0.05},
	{name: "live_heap_mib", unit: "MiB", better: "lower", src: 'H', bound: 0.05},
}

// latencyClasses are the op classes with per-class client latency metrics,
// and the percentiles reported for each.
var latencyClasses = []struct {
	op  opKind
	pcs []int
}{
	{opCreate, []int{50, 99}}, {opDelete, []int{99}}, {opStat, []int{50, 99}},
	{opOpen, []int{99}}, {opStatDir, []int{50, 99}}, {opReadDir, []int{99}},
	{opRename, []int{50, 99}}, {opDataRead, []int{99}}, {opDataWrite, []int{99}},
}

// minClassSamples is the fewest samples of an op class a workload must have
// for its per-class percentiles to be reported.
const minClassSamples = 1000

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(src byte, exact bool, better, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better, src: src, exact: exact})
		}
	}
	for _, c := range latencyClasses {
		for _, pc := range c.pcs {
			add('U', true, "lower", "us", fmt.Sprintf("client.%s_p%d_us", opNames[c.op], pc))
		}
	}
	add('U', true, "lower", "1/kop", "client.app_retries_per_kop")
	add('T', true, "lower", "ratio", "client.attempts_per_op", "client.self_share")

	add('U', true, "lower", "1/op", "wire.packets_per_op")
	add('U', true, "lower", "1/kop", "wire.dropped_per_kop")
	add('T', true, "lower", "ratio", "wire.self_share")

	add('U', true, "lower", "1/op", "pswitch.queries_per_op", "pswitch.inserts_per_op", "pswitch.removes_per_op")
	add('U', true, "lower", "count", "pswitch.overflows", "pswitch.occupied_end")
	add('T', true, "lower", "ratio", "pswitch.self_share")
	add('P', false, "lower", "ns", "pswitch.insert_ns", "pswitch.query_ns", "pswitch.remove_ns")

	add('U', true, "lower", "ratio", "server.ops_imbalance")
	add('U', true, "higher", "ratio", "server.async_commit_share")
	add('U', true, "lower", "1/kop", "server.fallbacks_per_kop", "server.retries_per_kop",
		"server.pushes_per_kop", "server.aggregations_per_kop")
	add('U', true, "higher", "ratio", "server.agg_entries_per_agg")
	add('U', true, "lower", "count", "server.clog_pending_end")
	add('T', true, "lower", "ratio", "server.handler_self_share", "server.commit_self_share",
		"server.agg_self_share", "server.txn_self_share")
	add('U', true, "lower", "ms", "server.recover_sim_ms")
	add('U', false, "lower", "ms", "server.recover_host_ms")

	add('U', true, "lower", "1/op", "wal.records_per_op")
	add('T', true, "lower", "ratio", "wal.self_share")
	add('P', false, "lower", "ns", "wal.append_ns", "wal.replay_ns_per_rec")

	add('U', true, "lower", "count", "kv.entries_end")
	add('P', false, "lower", "ns", "kv.put_ns", "kv.get_ns", "kv.scan_ns_per_entry", "kv.countprefix_ns")
	add('P', false, "lower", "B", "kv.bytes_per_entry")

	add('P', false, "lower", "ns", "ring.ownerof_ns")
	add('U', true, "lower", "count", "ring.version_end")

	add('P', false, "lower", "ns", "core.compact_ns_per_entry", "core.fingerprint_ns",
		"core.inode_codec_ns", "core.splitpath_ns")

	add('P', false, "lower", "ns", "env.handoff_ns", "env.timer_ns", "env.send_ns")
	add('U', false, "lower", "ns", "env.host_ns_per_packet")
	add('U', true, "lower", "count", "env.workers_peak")

	add('U', true, "lower", "1/op", "datanode.reads_per_op", "datanode.writes_per_op")
	add('U', true, "lower", "ratio", "datanode.replicated_per_write")
	add('U', true, "lower", "1/kop", "datanode.retries_per_kop")
	add('T', true, "lower", "ratio", "datanode.self_share")

	add('T', false, "lower", "ratio", "trace.host_overhead_ratio")
	add('T', true, "lower", "1/op", "trace.spans_per_op")
	add('T', true, "lower", "ratio", "trace.sim_perturbation")

	add('U', false, "lower", "ms", "cluster.deploy_ms")
	add('U', false, "lower", "us", "cluster.preload_us_per_entry")
	add('U', true, "lower", "us", "cluster.drain_sim_us")
	return defs
}

// value is one measured number. n is the sample count behind it where that
// means something (percentiles, medians over repetitions); na marks a metric
// that does not apply to the workload (printed as 0), and missing one whose
// source counters are gone from FillMetrics (printed as -1).
type value struct {
	V       float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	NA      bool    `json:"na,omitempty"`
	Missing bool    `json:"missing,omitempty"`
	// Reps holds the per-repetition values of a host-clock metric, so that
	// -against can tell a regression from run-to-run spread.
	Reps []float64 `json:"reps,omitempty"`
	// Allocs is the allocations per operation a leaf probe saw.
	Allocs *float64 `json:"allocs_per_op,omitempty"`
}

type values map[string]value

func (vs values) set(name string, v float64, n int) { vs[name] = value{V: v, N: n} }
func (vs values) na(name string)                    { vs[name] = value{NA: true} }
func (vs values) missing(name string)               { vs[name] = value{V: -1, Missing: true} }

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sumCounters adds up the FillMetrics counters named <group>.<i>.<suffix>.
// A counter that stayed at zero is absent from the snapshot, so absence of a
// single key means zero; ok is false only when the whole group is gone.
func sumCounters(snap map[string]uint64, group, suffix string) (sum float64, ok bool) {
	for k, v := range snap {
		if !strings.HasPrefix(k, group+".") {
			continue
		}
		ok = true
		if strings.HasSuffix(k, "."+suffix) && strings.Count(k, ".") == 2 {
			sum += float64(v)
		}
	}
	return sum, ok
}

// virtualValues computes every number of a repetition that is a pure
// function of (code, seed): the virtual end-to-end metrics and the
// deterministic per-layer counters.
func virtualValues(r *rep) values {
	vs := values{}
	ops := float64(len(r.samples))
	kops := ops / 1e3

	all := make([]int64, len(r.samples))
	byClass := make([][]int64, numOps)
	for i, s := range r.samples {
		all[i] = s.ns
		byClass[s.op] = append(byClass[s.op], s.ns)
	}
	slices.Sort(all)
	vs.set("sim_kops", ops/(float64(r.windowNs)/1e9)/1e3, len(all))
	vs.set("sim_p50_us", float64(percentile(all, 0.50))/1e3, len(all))
	vs.set("sim_p99_us", float64(percentile(all, 0.99))/1e3, len(all))
	vs.set("sim_p999_us", float64(percentile(all, 0.999))/1e3, len(all))

	for _, c := range latencyClasses {
		lat := byClass[c.op]
		slices.Sort(lat)
		for _, pc := range c.pcs {
			name := fmt.Sprintf("client.%s_p%d_us", opNames[c.op], pc)
			if len(lat) < minClassSamples {
				vs.na(name)
				continue
			}
			vs.set(name, float64(percentile(lat, float64(pc)/100))/1e3, len(lat))
		}
	}
	vs.set("client.app_retries_per_kop", float64(r.appRetries)/kops, 0)

	vs.set("wire.packets_per_op", float64(r.delivered)/ops, 0)
	vs.set("wire.dropped_per_kop", float64(r.dropped)/kops, 0)

	// put records a number derived from one FillMetrics group: missing when
	// the group is gone, not applicable when its base is zero. A counter
	// that stayed at zero is absent from the snapshot, so a group can only
	// be told from an idle one where the workload must have moved it: the
	// servers always, the switch whenever something mutates, the data nodes
	// whenever there are any.
	sum := func(group, suffix string) float64 {
		v, _ := sumCounters(r.counters, group, suffix)
		return v
	}
	present := func(group string) bool {
		_, ok := sumCounters(r.counters, group, "")
		return ok || (group == "switch" && !r.s.mutates())
	}
	put := func(name, group string, num, div float64) {
		switch {
		case !present(group):
			vs.missing(name)
		case div == 0:
			vs.na(name)
		default:
			vs.set(name, num/div, 0)
		}
	}
	put("pswitch.queries_per_op", "switch", sum("switch", "queries"), ops)
	put("pswitch.inserts_per_op", "switch", sum("switch", "inserts"), ops)
	put("pswitch.removes_per_op", "switch", sum("switch", "removes"), ops)
	put("pswitch.overflows", "switch", sum("switch", "overflows"), 1)
	vs.set("pswitch.occupied_end", float64(r.end.switchOccupied), 0)

	var maxOps, sumOps float64
	for _, n := range r.serverOps {
		sumOps += float64(n)
		if float64(n) > maxOps {
			maxOps = float64(n)
		}
	}
	vs.set("server.ops_imbalance", maxOps/(sumOps/float64(len(r.serverOps))), 0)
	async, aggs := sum("server", "async_commits"), sum("server", "aggregations")
	put("server.async_commit_share", "server", async, async+sum("server", "sync_commits"))
	put("server.fallbacks_per_kop", "server", sum("server", "fallbacks"), kops)
	put("server.retries_per_kop", "server", sum("server", "retries"), kops)
	put("server.pushes_per_kop", "server", sum("server", "pushes"), kops)
	put("server.aggregations_per_kop", "server", aggs, kops)
	put("server.agg_entries_per_agg", "server", sum("server", "agg_entries"), aggs)
	vs.set("server.clog_pending_end", float64(r.end.clogPending), 0)
	if r.s.crashAt > 0 {
		vs.set("server.recover_sim_ms", float64(r.recoverNs)/1e6, 0)
	} else {
		vs.na("server.recover_sim_ms")
	}

	vs.set("wal.records_per_op", float64(r.end.walRecords)/ops, 0)
	vs.set("kv.entries_end", float64(r.end.kvEntries), 0)
	vs.set("ring.version_end", float64(r.end.ringVersion), 0)
	vs.set("env.workers_peak", float64(r.workers), 0)

	if r.s.dataNodes == 0 {
		for _, n := range []string{"datanode.reads_per_op", "datanode.writes_per_op",
			"datanode.replicated_per_write", "datanode.retries_per_kop"} {
			vs.na(n)
		}
	} else {
		writes := sum("data", "writes")
		put("datanode.reads_per_op", "data", sum("data", "reads"), ops)
		put("datanode.writes_per_op", "data", writes, ops)
		put("datanode.replicated_per_write", "data", sum("data", "replicated"), writes)
		put("datanode.retries_per_kop", "data", sum("data", "retries"), kops)
	}
	vs.set("cluster.drain_sim_us", float64(r.drainNs)/1e3, 0)
	return vs
}

// hostValues computes the host-clock numbers as medians over the timed
// repetitions.
func hostValues(reps []*rep) values {
	vs := values{}
	med := func(name string, f func(r *rep) float64) {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		vs[name] = value{V: median(xs), N: len(xs), Reps: xs}
	}
	ops := func(r *rep) float64 { return float64(r.ops) }
	med("setup_s", func(r *rep) float64 { return r.setupS() })
	med("host_us_per_op", func(r *rep) float64 { return r.loadS * 1e6 / ops(r) })
	med("allocs_per_op", func(r *rep) float64 { return float64(r.mallocs) / ops(r) })
	med("bytes_per_op", func(r *rep) float64 { return float64(r.allocBytes) / ops(r) })
	med("live_heap_mib", func(r *rep) float64 { return float64(r.liveHeap) / (1 << 20) })

	med("env.host_ns_per_packet", func(r *rep) float64 { return r.loadS * 1e9 / float64(r.delivered) })
	med("cluster.deploy_ms", func(r *rep) float64 { return r.deployS * 1e3 })
	med("cluster.preload_us_per_entry", func(r *rep) float64 {
		return r.preloadS * 1e6 / float64(r.s.dirs*(r.s.filesPerDir+1))
	})
	if reps[0].s.crashAt > 0 {
		med("server.recover_host_ms", func(r *rep) float64 { return r.recoverHost * 1e3 })
	} else {
		vs.na("server.recover_host_ms")
	}
	return vs
}

// diffExact returns the names on which two sets of exact values differ.
func diffExact(a, b values) []string {
	var out []string
	for name, av := range a {
		if bv, ok := b[name]; !ok || av.V != bv.V || av.NA != bv.NA || av.Missing != bv.Missing {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, av.V, bv.V))
		}
	}
	sort.Strings(out)
	return out
}
