package main

// Run plumbing shared by the workloads, the Go runtime counters, and the
// standalone layer probes of a traced run.

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// minSetups is how many cold set-ups a run times, spread across its
// operations so one burst cannot cover them all.
const minSetups = 21

type runConfig struct {
	seed uint64
	tr   *tracer // nil for untraced runs
	// main marks the workload the run was asked for; complements run only
	// to give a traced run every per-layer metric.
	main bool
	// alternate traces only odd rounds, so the traced run can compare its
	// own traced and untraced operations for the tracing overhead.
	alternate bool
	ops       *atomic.Int64
}

func (c *runConfig) nextOp() int64 { return c.ops.Add(1) }

// complement returns the config for a traced run's complement workload.
func (c *runConfig) complement() *runConfig {
	return &runConfig{seed: c.seed, tr: c.tr, ops: c.ops}
}

// round is one pass over a workload's operations; tr is nil when the pass
// is untraced. Traced passes get a bench.round span whose self time is the
// benchmark's own overhead between operations.
type round struct {
	tr  *tracer
	id  int64
	end func()
}

func (c *runConfig) beginRound(k int) round {
	if c.tr == nil || (c.alternate && k%2 == 0) {
		return round{end: func() {}}
	}
	id, end := c.tr.begin("bench.round", 0, 0)
	return round{c.tr, id, end}
}

// add files one timed sample under all, and under traced or untraced when
// the run is traced.
func (rd round) add(cfg *runConfig, class string, v float64, all, traced, untraced classSamples) {
	all.add(class, v)
	if cfg.tr == nil {
		return
	}
	if rd.tr != nil {
		traced.add(class, v)
	} else {
		untraced.add(class, v)
	}
}

// finishMain records the metrics that belong to the run as a whole: live
// memory while the workload's state is still held (callers keep it alive
// past this call), the Go runtime's GC and
// allocation deltas, and the tracing overhead.
func (c *runConfig) finishMain(r *report, traced, untraced classSamples, rt runtimeSample, ops int) {
	if !c.main {
		return
	}
	r.e2e["mem_live_mb"] = liveMB()
	r.layer["runtime.gc_cpu_frac"] = rt.gcCPU / rt.totalCPU
	r.layer["runtime.alloc_mb_per_op"] = rt.allocBytes / 1e6 / float64(ops)
	if len(traced) > 0 && len(untraced) > 0 {
		r.layer["trace.overhead_frac"] = traced.geoClassQuantile(0.5)/untraced.geoClassQuantile(0.5) - 1
	}
}

type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

var runtimeNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes}
}

// liveMB forces a GC and returns the live heap in MB, less the calibration
// probe's working sets. The second GC empties sync.Pool victim caches, which
// survive one.
func liveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	probeBytes := 8 * (len(probeSmall) + len(probeLarge))
	return float64(int(s[0].Value.Uint64())-probeBytes) / 1e6
}

// deriveSeed mixes the workload seed with a label (splitmix64 finalizer),
// so every kernel, block and job draws from its own fixed stream.
func deriveSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := seed ^ h.Sum64()
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// probeInterp times the interpreter directly: campaign.NewGolden on each
// kernel's reference input, and core.FitnessEval.Eval over a fixed input
// list per kernel. Each kernel's ns per dynamic instruction is the median
// of several passes; kernels combine by geometric mean.
func probeInterp(cfg *runConfig, r *report, names []string) {
	const passes = 5
	benches := buildKernels(names, nil)
	var golden, profile []float64
	for _, n := range names {
		b := benches[n]
		var g []float64
		for i := 0; i < passes; i++ {
			_, end := cfg.tr.begin("campaign.NewGolden", 0, 0)
			t := time.Now()
			gr, err := campaign.NewGolden(b.Prog, b.Encode(b.RefInput()), b.MaxDyn)
			d := time.Since(t)
			end()
			r.attempted++
			if err != nil {
				r.fail("probe %s golden: %v", n, err)
				continue
			}
			g = append(g, float64(d.Nanoseconds())/float64(gr.DynCount))
		}
		if len(g) > 0 {
			golden = append(golden, median(g))
		}

		rng := xrand.New(deriveSeed(cfg.seed, "probe/"+n))
		inputs := [][]float64{b.RefInput()}
		for len(inputs) < 8 {
			inputs = append(inputs, b.RandomInput(rng))
		}
		scores := make([]float64, b.Prog.NumInstrs())
		for i := range scores {
			scores[i] = 1
		}
		fe := core.NewFitnessEval(b, scores)
		var p []float64
		for i := 0; i < passes; i++ {
			_, end := cfg.tr.begin("core.FitnessEval.Eval", 0, 0)
			t := time.Now()
			var dyn int64
			for _, in := range inputs {
				_, d := fe.Eval(in)
				dyn += d
			}
			d := time.Since(t)
			end()
			p = append(p, float64(d.Nanoseconds())/float64(dyn))
		}
		profile = append(profile, median(p))
	}
	r.layer["interp.golden_ns_per_dyn"] = geomean(golden)
	r.layer["interp.profile_ns_per_dyn"] = geomean(profile)
}

// runComplements gives a traced run the per-layer metrics its own workload
// does not exercise, from small passes of the other workloads.
func runComplements(cfg *runConfig, workload string, r *report) error {
	sub := cfg.complement()
	probeInterp(sub, r, prog.Names())
	c := newReport()
	if workload != "pipeline" {
		if err := runPipeline(sub, pipelineConfig{kernels: []string{"needle", "nbody"}, seeds: 1, repeats: 0}, c); err != nil {
			return fmt.Errorf("pipeline complement: %w", err)
		}
	}
	if workload != "campaign" {
		if err := runCampaign(sub, campaignConfig{kernels: prog.Names(), trials: 200, rounds: 1}, c); err != nil {
			return fmt.Errorf("campaign complement: %w", err)
		}
	}
	if workload != "service" {
		// Two blocks, so the second composes from profiles the first cached.
		sc := defaultServiceConfig(2)
		if err := runService(sub, sc, c); err != nil {
			return fmt.Errorf("service complement: %w", err)
		}
	}
	r.attempted += c.attempted
	r.failed += c.failed
	r.failures = append(r.failures, c.failures...)
	for k, v := range c.layer {
		if _, ok := r.layer[k]; !ok {
			r.layer[k] = v
		}
	}
	return nil
}
