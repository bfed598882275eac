package main

// The pipeline workload: one reduced-scale core.Search per operation, with
// the peppax CLI's default engine choices (no BatchSize, Compose or
// CITarget, bitflip faults, no trace). The ten kernels run round-robin, each
// with many search seeds derived from the workload seed.
//
// One search's cost varies several-fold with its seed, because the GA
// reaches inputs of different sizes, but its time per dynamic instruction
// barely does. A kernel's class is therefore the kernel, and its samples are
// the searches' times per dynamic instruction: the class median rests on
// every search of the kernel and shrugs off a burst like any median of
// identical operations. The kernel's time to bound is that median times the
// mean dynamic instruction count of its search seeds, which is exact and
// fixed by the workload seed.

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/xrand"
)

type pipelineConfig struct {
	kernels []string
	// seeds is the number of search seeds per kernel, each derived from the
	// workload seed: the mean dynamic instruction count needs many seeds to
	// hold still from one workload seed to the next. The first `repeats`
	// seeds run a second time at the end, for the repeated-search identity
	// check.
	seeds, repeats int
}

// pipelineOptions is the reduced search scale. It keeps the GA phase
// (Cost.SearchTime) the largest phase on most kernels, as at full scale.
func pipelineOptions() core.Options {
	o := core.DefaultOptions()
	o.Generations = 15
	o.PopSize = 10
	o.TrialsPerRep = 3
	o.FinalTrials = 100
	o.Workers = 1
	return o
}

// pipelineRoundSeconds is the nominal time of one round over all ten
// kernels on the reference host; it turns --seconds into a fixed round count.
const pipelineRoundSeconds = 1.1

// pipelineRepeats is how many search seeds per kernel run twice.
const pipelineRepeats = 2

func buildKernels(names []string, tr *tracer) map[string]*prog.Benchmark {
	_, end := tr.begin("prog.Build", 0, 0)
	defer end()
	out := make(map[string]*prog.Benchmark, len(names))
	for _, n := range names {
		out[n] = prog.Build(n)
	}
	return out
}

// searchOutcome keeps what the metrics and checks need from one search, so
// the results themselves are not live when mem_live_mb is measured.
type searchOutcome struct {
	sig                   string
	bound, lo, hi         float64
	cost                  core.Cost
	evals, fiTrials, reps int
	dur                   float64 // wall seconds around core.Search
}

func newOutcome(res *core.Result, dur float64) searchOutcome {
	lo, hi := res.SDCInterval()
	return searchOutcome{searchSignature(res), res.SDCBound(), lo, hi, res.Cost,
		res.Evaluations, res.Distribution.FITrials, res.Distribution.Representatives, dur}
}

func runPipeline(cfg *runConfig, pc pipelineConfig, r *report) error {
	var setups []float64
	var benches map[string]*prog.Benchmark
	timeSetup := func() {
		var b map[string]*prog.Benchmark
		_, norm := timed(func() { b = buildKernels(pc.kernels, cfg.tr) })
		setups = append(setups, norm)
		if benches == nil {
			benches = b
		}
	}

	opts := pipelineOptions()
	// all and raw hold seconds per dynamic instruction, calibrated and wall.
	all, raw, traced, untraced := classSamples{}, classSamples{}, classSamples{}, classSamples{}
	first := map[string]searchOutcome{}
	outcomes := map[string][]searchOutcome{}
	rt := readRuntime()
	ops := 0
	for k := 0; k < pc.seeds+pc.repeats; k++ {
		timeSetup()
		rd := cfg.beginRound(k)
		sub := k % pc.seeds
		for _, name := range pc.kernels {
			ops++
			r.attempted++
			b := benches[name]
			class := fmt.Sprintf("%s/%d", name, sub)
			rng := xrand.New(deriveSeed(cfg.seed, "pipeline/"+class))
			var res *core.Result
			var err error
			opID := cfg.nextOp()
			_, end := rd.tr.begin("core.Search", rd.id, opID)
			d, norm := timed(func() { res, err = core.Search(b, opts, rng) })
			end()
			if err != nil {
				r.fail("pipeline %s: %v", class, err)
				continue
			}
			if msg := checkSearch(res, opts); msg != "" {
				r.fail("pipeline %s: %s", class, msg)
				continue
			}
			o := newOutcome(res, d)
			if f, ok := first[class]; !ok {
				first[class] = o
			} else if f.sig != o.sig {
				r.fail("pipeline %s: repeated search with the same seed returned a different result", class)
				continue
			}
			outcomes[name] = append(outcomes[name], o)
			dyn := float64(o.cost.TotalDyn())
			raw.add(name, d/dyn)
			rd.add(cfg, name, norm/dyn, all, traced, untraced)
		}
		rd.end()
	}
	for len(setups) < minSetups {
		timeSetup()
	}
	rtDelta := readRuntime().sub(rt)
	if len(first) == 0 {
		return fmt.Errorf("pipeline: no search succeeded")
	}

	// Searches are visited in a fixed order, so the means repeat to the bit.
	var bounds, halfwidths, ttb, ttbWall []float64
	for _, name := range pc.kernels {
		var dyn []float64
		for sub := 0; sub < pc.seeds; sub++ {
			if f, ok := first[fmt.Sprintf("%s/%d", name, sub)]; ok {
				dyn = append(dyn, float64(f.cost.TotalDyn()))
				bounds = append(bounds, f.bound)
				halfwidths = append(halfwidths, (f.hi-f.lo)/2)
			}
		}
		if len(dyn) > 0 {
			ttb = append(ttb, median(all[name])*mean(dyn))
			ttbWall = append(ttbWall, median(raw[name])*mean(dyn))
		}
	}
	p50 := geomean(ttb)
	p75, beyond := all.tail(p50)
	r.e2e["setup_s"] = median(setups)
	r.e2e["latency_p50_ms"] = p50 * 1e3
	r.e2e["latency_p75_ms"] = p75 * 1e3
	r.e2e["sdc_bound_mean"] = mean(bounds)
	r.e2e["halfwidth_mean"] = mean(halfwidths)
	r.note("latency_p75_ms.beyond", "count", float64(beyond))
	r.note("time_to_bound_s", "s", p50)
	r.note("time_to_bound_s.wall", "s", geomean(ttbWall))
	r.note("pipeline.searches_per_kernel_min", "count", float64(all.minClassSize()))
	r.note("pipeline.setups", "count", float64(len(setups)))

	// Per-layer: each phase is summed over kernels of the kernel's median
	// phase wall time, so the four phases add up to one round's time.
	var si, sens, ga, fi []float64
	var cover = 1.0
	var evalRates []float64
	var siDyn, sensDyn, gaDyn, fiDyn, evals, fiTrials, reps float64
	for _, name := range pc.kernels {
		outs := outcomes[name]
		if len(outs) == 0 {
			continue
		}
		var s1, s2, s3, s4 []float64
		for _, o := range outs {
			c := o.cost
			s1 = append(s1, c.SmallInputTime.Seconds())
			s2 = append(s2, c.SensitivityTime.Seconds())
			s3 = append(s3, c.SearchTime.Seconds())
			s4 = append(s4, c.FinalFITime.Seconds())
			cover = min(cover, c.TotalTime().Seconds()/o.dur)
		}
		si, sens, ga, fi = append(si, median(s1)), append(sens, median(s2)), append(ga, median(s3)), append(fi, median(s4))
		evalRates = append(evalRates, float64(outs[0].evals)/median(s3))
		// Counts are per round: averaged over the kernel's search seeds.
		w := 1 / float64(pc.seeds)
		for sub := 0; sub < pc.seeds; sub++ {
			f, ok := first[fmt.Sprintf("%s/%d", name, sub)]
			if !ok {
				continue
			}
			siDyn += w * float64(f.cost.SmallInputDyn)
			sensDyn += w * float64(f.cost.SensitivityDyn)
			gaDyn += w * float64(f.cost.SearchDyn)
			fiDyn += w * float64(f.cost.FinalFIDyn)
			evals += w * float64(f.evals)
			fiTrials += w * float64(f.fiTrials)
			reps += w * float64(f.reps)
		}
	}
	r.layer["core.small_input_s"] = sum(si)
	r.layer["core.sensitivity_s"] = sum(sens)
	r.layer["core.ga_s"] = sum(ga)
	r.layer["core.final_fi_s"] = sum(fi)
	r.layer["core.small_input_dyn"] = siDyn
	r.layer["core.sensitivity_dyn"] = sensDyn
	r.layer["core.ga_dyn"] = gaDyn
	r.layer["core.final_fi_dyn"] = fiDyn
	r.layer["core.phase_cover_frac"] = cover
	r.layer["ga.evals_per_s"] = geomean(evalRates)
	r.layer["ga.evaluations"] = evals
	r.layer["sensitivity.fi_trials"] = fiTrials
	r.layer["sensitivity.representatives"] = reps
	gaLargest := 0
	for i := range ga {
		if ga[i] >= si[i] && ga[i] >= sens[i] && ga[i] >= fi[i] {
			gaLargest++
		}
	}
	r.note("pipeline.kernels_ga_largest", "count", float64(gaLargest))
	cfg.finishMain(r, traced, untraced, rtDelta, ops)
	runtime.KeepAlive(benches)
	return nil
}

// checkSearch validates one search result against the options it ran with.
func checkSearch(res *core.Result, opts core.Options) string {
	if res.Final.Trials != opts.FinalTrials {
		return fmt.Sprintf("final campaign ran %d trials, want %d", res.Final.Trials, opts.FinalTrials)
	}
	if b := res.SDCBound(); b < 0 || b > 1 {
		return fmt.Sprintf("SDC bound %v outside [0,1]", b)
	}
	if len(res.FitnessHistory) != opts.Generations {
		return fmt.Sprintf("%d generations recorded, want %d", len(res.FitnessHistory), opts.Generations)
	}
	return ""
}

// searchSignature renders every deterministic field of a search result.
func searchSignature(r *core.Result) string {
	c := r.Cost
	return fmt.Sprintf("%v|%+v|%d|%d,%d,%d,%d|%d,%d", r.BestInput, r.Final, r.Evaluations,
		c.SmallInputDyn, c.SensitivityDyn, c.SearchDyn, c.FinalFIDyn,
		r.Distribution.FITrials, r.Distribution.Representatives)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
