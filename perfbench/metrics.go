package main

// The metric registry: the single source of BENCHMARK.json's workload and
// metric lists. Every workload reports every end-to-end metric, and every
// traced run reports every per-layer metric.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"pipeline", "what a peppax user waits for: full searches on all ten kernels, mostly profiling (interp fast path, ga, small-input fuzzer)"},
	{"campaign", "what an fi user waits for: 1000-trial bitflip campaigns, all FI, per-trial and batch-64 executors side by side"},
	{"service", "the only workload where the cross-job caches, compose, admission and NDJSON streaming work: two clients, half the jobs repeat"},
}

// endToEnd lists the metrics a user of the system sees. Timed ones are
// per-class medians (p75 at most) combined by geometric mean; see stats.go.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.18},
	{"latency_p75_ms", "ms", "lower", 0.25},
	{"mem_live_mb", "MB", "lower", 0.2},
	{"sdc_bound_mean", "prob", "higher", 0.15},
	{"halfwidth_mean", "prob", "lower", 0.1},
}

// perLayer lists the single-layer metrics of a traced run. They have no
// bound.
var perLayer = []metricDef{
	{"interp.golden_ns_per_dyn", "ns", "lower", 0},
	{"interp.profile_ns_per_dyn", "ns", "lower", 0},
	{"campaign.trial_us.per_trial", "us", "lower", 0},
	{"campaign.trial_us.batch64", "us", "lower", 0},
	{"campaign.replayed_dyn_frac", "ratio", "lower", 0},
	{"core.small_input_s", "s", "lower", 0},
	{"core.sensitivity_s", "s", "lower", 0},
	{"core.ga_s", "s", "lower", 0},
	{"core.final_fi_s", "s", "lower", 0},
	{"core.small_input_dyn", "count", "lower", 0},
	{"core.sensitivity_dyn", "count", "lower", 0},
	{"core.ga_dyn", "count", "lower", 0},
	{"core.final_fi_dyn", "count", "lower", 0},
	{"core.phase_cover_frac", "ratio", "higher", 0},
	{"ga.evals_per_s", "1/s", "higher", 0},
	{"ga.evaluations", "count", "lower", 0},
	{"sensitivity.fi_trials", "count", "lower", 0},
	{"sensitivity.representatives", "count", "lower", 0},
	{"compose.reuse_ratio", "ratio", "higher", 0},
	{"compose.measure_dyn_per_job", "count", "lower", 0},
	{"service.queue_wait_ms", "ms", "lower", 0},
	{"service.run_ms", "ms", "lower", 0},
	{"service.golden_hit_ratio", "ratio", "higher", 0},
	{"service.tokens_per_job", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.spans", "count", "higher", 0},
	{"bench.self_frac", "ratio", "lower", 0},
}

// writeSpec writes BENCHMARK.json from the registry.
func writeSpec(path string, runSeconds int) error {
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDef, len(perLayer))
	for i, d := range perLayer {
		layers[i] = layerDef{d.Name, d.Unit, d.Better}
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, workloads, endToEnd, layers}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report is what one workload run produces.
type report struct {
	attempted, failed int
	failures          []string
	// e2e and layer hold the registry metrics; extra holds workload-native
	// names (time_to_bound_s, trials_per_s, fail_frac, ...) printed for
	// people but not part of the result object.
	e2e, layer map[string]float64
	extra      []namedValue
	selfTimes  map[string]float64 // layer → self seconds, traced runs only
}

type namedValue struct {
	name, unit string
	value      float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(name, unit string, v float64) {
	r.extra = append(r.extra, namedValue{name, unit, v})
}

// metricDefs returns the metrics a run reports: per-layer ones when traced.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// values returns the report's values for the metrics a run reports.
func (r *report) values(traced bool) map[string]float64 {
	if traced {
		return r.layer
	}
	return r.e2e
}

// missing lists registry metrics the report lacks or holds as non-finite.
func (r *report) missing(traced bool) []string {
	defs, got := metricDefs(traced), r.values(traced)
	var out []string
	for _, d := range defs {
		if v, ok := got[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, d.Name)
		}
	}
	return out
}
