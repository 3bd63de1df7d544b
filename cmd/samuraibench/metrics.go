package main

import (
	"math"
	"runtime/metrics"
	"sort"

	"samurai/internal/obs"
)

// metricDef is one metric the benchmark reports. End-to-end metrics are
// measured with tracing off and carry the regression bound BENCHMARK.json
// repeats; per-layer metrics come from the traced pass.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics every workload reports with tracing off.
// Bound is the share of the baseline median by which a metric may worsen
// before a change counts as a regression. An item is the workload's unit
// of work (a run, a trace or a cell) and an op its request (a run, a
// trace, a sweep or a job).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_p90_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics of the traced pass. A workload that does not
// exercise a layer reports 0 for its metrics. README.md lists the
// end-to-end metric and workload each should move.
var perLayer = []metricDef{
	{Name: "circuit.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "circuit.share", Unit: "ratio", Better: "lower"},
	{Name: "circuit.newton_iters_per_op", Unit: "count", Better: "lower"},
	{Name: "circuit.steps_accepted_per_op", Unit: "count", Better: "lower"},
	{Name: "circuit.steps_rejected_per_op", Unit: "count", Better: "lower"},
	{Name: "circuit.us_per_newton_iter", Unit: "us", Better: "lower"},
	{Name: "markov.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "markov.share", Unit: "ratio", Better: "lower"},
	{Name: "markov.candidates_per_op", Unit: "count", Better: "lower"},
	{Name: "markov.accept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "markov.ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "rtn.busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "rtn.share", Unit: "ratio", Better: "lower"},
	{Name: "rtn.transitions_per_op", Unit: "count", Better: "lower"},
	{Name: "rtn.ns_per_transition", Unit: "ns", Better: "lower"},
	{Name: "trap.busy_us_per_op", Unit: "us", Better: "lower"},
	{Name: "sram.build_us_per_op", Unit: "us", Better: "lower"},
	{Name: "sram.detect_us_per_op", Unit: "us", Better: "lower"},
	{Name: "samurai.self_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "mc.busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "mc.cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "mc.cell_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "rare.ess_frac", Unit: "ratio", Better: "higher"},
	{Name: "rare.rel_ci_half", Unit: "ratio", Better: "lower"},
	{Name: "rare.lr_var", Unit: "1", Better: "lower"},
	{Name: "rare.s_to_ci", Unit: "s", Better: "lower"},
	{Name: "jobd.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.status_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.status_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "jobd.result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.job_p50_s", Unit: "s", Better: "lower"},
	{Name: "jobd.wal_bytes_per_cell", Unit: "B", Better: "lower"},
	{Name: "jobd.wal_records_per_cell", Unit: "count", Better: "lower"},
	{Name: "jobd.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.lease_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fabric.lease_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "fabric.checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fabric.checkpoint_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "fabric.status_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "fabric.leases_per_job", Unit: "count", Better: "lower"},
	{Name: "fabric.empty_leases_per_job", Unit: "count", Better: "lower"},
	{Name: "fabric.checkpoints_per_cell", Unit: "count", Better: "lower"},
	{Name: "fabric.idle_s_per_job", Unit: "s", Better: "lower"},
	{Name: "fabric.steals", Unit: "count", Better: "lower"},
	{Name: "fabric.job_p50_s", Unit: "s", Better: "lower"},
	{Name: "fabric.wal_bytes_per_cell", Unit: "B", Better: "lower"},
	{Name: "fabric.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "go.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "go.gc_cycles_per_op", Unit: "count", Better: "lower"},
}

// value is one reported metric: the measured number, its unit and the
// number of samples it summarises.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified). It
// returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// sortedKeys returns m's keys in order, so sums and lists built from a
// map do not depend on its iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// counterNames are the program's own obs counters whose deltas give the
// per-layer work counts. They repeat exactly for a given seed and op
// count.
var counterNames = []string{
	"samurai_circuit_newton_iterations_total",
	"samurai_circuit_steps_accepted_total",
	"samurai_circuit_steps_rejected_total",
	"samurai_markov_candidates_total",
	"samurai_markov_accepts_total",
	"samurai_rtn_trace_transitions_total",
	"samurai_fabric_leases_granted_total",
	"samurai_fabric_steals_total",
}

// counters is a snapshot of counterNames plus the montecarlo workers'
// summed busy seconds.
type counters struct {
	n          map[string]int64
	mcBusySecs float64
}

// snapshotCounters reads the process registry. The montecarlo busy
// counter is labelled per worker index; the benchmark never runs more
// than cellWorkers cell workers per sweep.
func snapshotCounters() counters {
	c := counters{n: map[string]int64{}}
	for _, name := range counterNames {
		c.n[name] = obs.GetCounter(name, "").Value()
	}
	for _, w := range []string{"0", "1"} {
		c.mcBusySecs += obs.GetFloatCounter("samurai_mc_worker_busy_seconds_total", "", obs.L("worker", w)).Value()
	}
	return c
}

// delta returns c − before for counter name.
func (c counters) delta(before counters, name string) float64 {
	return float64(c.n[name] - before.n[name])
}

// runtimeSample is a snapshot of the Go runtime metrics the benchmark
// reports per op.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{allocBytes: v[0], gcCycles: v[1], gcCPU: v[2], totalCPU: v[3]}
}

// heapInUse returns the heap memory mapped and not released to the OS:
// live and dead objects, free spans still held, and unused span tails.
func heapInUse() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	metrics.Read(s)
	t := 0.0
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			t += float64(x.Value.Uint64())
		}
	}
	return t
}

// metricByName finds a definition in either table.
func metricByName(name string) (metricDef, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
