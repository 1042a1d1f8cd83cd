// Package bench is socbench, the repository's one benchmark: four
// workloads that time the SoC simulation loop and the socd/socgw job
// service end to end, plus a traced mode that splits the same runs by
// layer. See README.md for the workloads, the metric definitions and how
// to read a trace.
package bench

import (
	"math"
	"sort"
)

// MetricDef names one reported metric. BENCHMARK.json at the repository
// root repeats these lists with their regression bounds; the package test
// keeps the two in step.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// EndToEnd is what an untraced run reports, on every workload. An op is
// one build+run+verify iteration on the soc workloads and one job request
// on the service workloads.
var EndToEnd = []MetricDef{
	{"ops_per_s", "1/s", "higher"},
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"setup_s", "s", "lower"},
}

// PerLayer is what a traced run reports. A run measures only the layers
// its workload reaches (and the probes); the others read 0.
var PerLayer = []MetricDef{
	// End-to-end in kind, from the traced run's untraced ops, but over 10%
	// apart across seeds on a quiet host (bench/README.md): cold-op
	// latency (an iteration, or a sim request answered X-Cache: miss) and
	// the session's peak resident set.
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	// sim: the discrete-event kernel, per SoC.Run.
	{"sim.run_ms_per_run", "ms", "lower"},
	{"sim.ns_per_edge", "ns", "lower"},
	{"sim.edges_per_run", "count", "lower"},
	{"sim.threads_per_run", "count", "lower"},
	{"sim.allocs_per_run", "count", "lower"},
	{"sim.alloc_kb_per_run", "KB", "lower"},
	{"sim.goroutines_retained_per_run", "count", "lower"},
	{"sim.heap_retained_mb_per_run", "MB", "lower"},
	{"sim.gc_ms_per_run", "ms", "lower"},
	// soc: the chip build, the test checks, and the modelled design.
	{"soc.build_ms", "ms", "lower"},
	{"soc.verify_ms", "ms", "lower"},
	{"soc.cycles_per_run", "cycles", "lower"},
	{"soc.tlm_cycle_err_pct", "%", "lower"},
	{"riscv.ipc", "ratio", "higher"},
	// connections, noc, gals: channel, router and crossing work per run,
	// plus microbenchmark probes of each.
	{"connections.transfers_per_run", "count", "lower"},
	{"connections.push_fail_ratio", "ratio", "lower"},
	{"connections.ns_per_transfer", "ns", "lower"},
	{"noc.flits_per_run", "count", "lower"},
	{"noc.stalls_per_flit", "ratio", "lower"},
	{"noc.ns_per_flit", "ns", "lower"},
	{"gals.pauses_per_run", "count", "lower"},
	{"gals.crossings_per_run", "count", "lower"},
	{"gals.ns_per_crossing", "ns", "lower"},
	// rtl / hls / synth / core / static checks: probes.
	{"rtl.ns_per_cell_cycle", "ns", "lower"},
	{"rtl.compile_ms", "ms", "lower"},
	{"hls.pipeline_ms", "ms", "lower"},
	{"synth.map_optimize_ms", "ms", "lower"},
	{"core.qor_table_ms", "ms", "lower"},
	{"lint.check_ms", "ms", "lower"},
	{"ratecheck.check_ms", "ms", "lower"},
	{"mc.check_ms", "ms", "lower"},
	// serve: the job service as its client sees it, split by the traced
	// request path, plus probes of its hot helpers.
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_p90_ms", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p90", "ms", "lower"},
	{"serve.exec_ms_p50.sim", "ms", "lower"},
	{"serve.exec_ms_p50.lint", "ms", "lower"},
	{"serve.exec_ms_p50.rateck", "ms", "lower"},
	{"serve.exec_ms_p50.stallhunt", "ms", "lower"},
	{"serve.exec_ms_p50.verify", "ms", "lower"},
	{"serve.result_fetch_ms_p50", "ms", "lower"},
	{"http.healthz_rtt_ms_p50", "ms", "lower"},
	{"serve.spec_hash_us", "us", "lower"},
	{"serve.cache_get_ns", "ns", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.planned_hit_ratio", "ratio", "higher"},
	{"serve.unexpected_misses", "count", "lower"},
	{"serve.rss_growth_kb_per_job", "KB", "lower"},
	// fleet: the gateway, its wire protocol and its caches.
	{"fleet.wire_frames_per_job", "count", "lower"},
	{"fleet.wire_bytes_per_job", "bytes", "lower"},
	{"fleet.wire_encode_ns", "ns", "lower"},
	{"fleet.wire_decode_ns", "ns", "lower"},
	{"fleet.gateway_cache_hit_ratio", "ratio", "higher"},
	{"fleet.worker_cache_hit_ratio", "ratio", "higher"},
	{"fleet.resubmitted", "count", "lower"},
	{"fleet.routed_around", "count", "lower"},
	// Self time of each benchmark-side span, mean per span.
	{"self_ms.iteration", "ms", "lower"},
	{"self_ms.soc.build", "ms", "lower"},
	{"self_ms.soc.run", "ms", "lower"},
	{"self_ms.soc.verify", "ms", "lower"},
	{"self_ms.stats.snapshot", "ms", "lower"},
	{"self_ms.request", "ms", "lower"},
	{"self_ms.http.submit", "ms", "lower"},
	{"self_ms.serve.queue", "ms", "lower"},
	{"self_ms.serve.exec", "ms", "lower"},
	{"self_ms.http.result", "ms", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// Value is one reported number with its unit, as the result line prints it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Value

// fill returns the defs' metrics taken from vals, 0 where vals has none,
// so a run always reports exactly the listed set.
func fill(defs []MetricDef, vals map[string]float64) Metrics {
	m := make(Metrics, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.Name] = Value{Value: v, Unit: d.Unit}
	}
	return m
}

// Quartiles returns q1, median and q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so spreads
// computed here match those computed from the printed values.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

// Spread is the interquartile distance of xs as a share of its median.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if p == 50 && len(d)%2 == 0 {
		return (d[len(d)/2-1] + d[len(d)/2]) / 2
	}
	k := int(math.Ceil(p/100*float64(len(d)))) - 1
	if k < 0 {
		k = 0
	}
	return d[k]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
