package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/ga"
	"repro/internal/interp"
	"repro/internal/parallel"
	"repro/internal/prog"
	"repro/internal/sensitivity"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Options parameterizes a PEPPA-X search.
type Options struct {
	// Generations is the GA budget (the x-axis of Figure 5).
	Generations int
	// PopSize is the GA population size. Mutation and crossover run at
	// §4.2.4's rates (ga.DefaultMutationRate and ga.DefaultCrossoverRate).
	PopSize int
	// TrialsPerRep is the FI trial count per pruning representative in the
	// sensitivity derivation (§4.2.3 uses 30).
	TrialsPerRep int
	// FinalTrials is the statistical FI campaign size for the reported
	// SDC-bound input (the paper uses 1000).
	FinalTrials int
	// Checkpoints lists generation counts at which the current best input
	// is FI-evaluated (to draw Figure 5). Checkpoint FI cost is reporting
	// cost and is excluded from the search budget.
	Checkpoints []int
	// Trace, when non-nil, receives the search's telemetry: phase events
	// for the Figure 8 sensitivity-vs-search cost split (small_input,
	// sensitivity, search, final_fi), per-generation GA and cost events,
	// checkpoint measurements and the closing FI tally. The stream's cost
	// clock advances with the pipeline's dynamic-instruction spend, so the
	// trace is byte-identical for every worker count.
	Trace *telemetry.Stream
	// ComposeCache, when non-nil, shares profiles across searches of the
	// same program (nil: a private cache per search).
	ComposeCache *compose.Cache
	// Ctx, when non-nil, cancels the pipeline cooperatively: the GA loop
	// stops before its next generation, FI campaigns stop at their next
	// trial boundary, and Search returns the best input found so far with
	// whatever final measurement completed. The RNG draws consumed before
	// the cancellation point are unchanged, so an uncanceled run is
	// bit-identical whether or not a context is supplied.
	Ctx context.Context
	// FIOptions configures the pipeline's FI campaigns: the sensitivity
	// derivation, the Figure 5 checkpoints and the closing measurement.
	FIOptions
}

// canceled reports whether the pipeline's context is canceled (nil-safe).
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Generations:  200,
		PopSize:      ga.DefaultPopulation,
		TrialsPerRep: sensitivity.DefaultTrialsPerRepresentative,
		FinalTrials:  1000,
	}
}

// Checkpoint is the FI-measured state of the search at a generation budget.
type Checkpoint struct {
	Generation int
	BestInput  []float64
	Fitness    float64
	// Estimate is the best input's measured SDC probability: a flat
	// FinalTrials-trial campaign, or under Options.Compose the composed
	// estimate (zero when the input's golden run failed).
	campaign.Estimate
}

// Result is the outcome of one PEPPA-X search.
type Result struct {
	Benchmark string

	// SmallInput describes the step-① result.
	SmallInput *SmallInputResult
	// Distribution is the step-③ SDC sensitivity distribution.
	Distribution *sensitivity.Distribution

	// BestInput is the reported SDC-bound input with its fitness score.
	BestInput   []float64
	BestFitness float64
	// Final is the closing statistical FI campaign's estimate on BestInput
	// — the paper's reported program SDC probability bound, flat or, under
	// Options.CITarget > 0, adaptive.
	Final campaign.Estimate
	// FinalAdaptive is the adaptive campaign's full result (its strata and
	// rounds); nil when the closing campaign ran flat.
	FinalAdaptive *campaign.AdaptiveResult

	// Checkpoints are the Figure 5 measurements, ordered by generation.
	Checkpoints []Checkpoint
	// FitnessHistory records the best fitness after each generation.
	FitnessHistory []float64
	// SearchDynHistory records the cumulative GA-search dynamic-instruction
	// cost after each generation — the basis for giving the baseline an
	// equal budget at any generation cut-off (Figures 5, 7, 8).
	SearchDynHistory []int64
	// Evaluations counts candidate evaluations during the GA search, each
	// charged to Cost.SearchDyn as one profiled run.
	Evaluations int
	// ProfiledInputs counts the distinct inputs the GA search profiled;
	// every other evaluation reused a recorded run (FitnessEval's memo).
	ProfiledInputs int
	// SearchDynExecuted is the part of Cost.SearchDyn the profiler actually
	// executed: the runs of the ProfiledInputs. The rest is modeled.
	SearchDynExecuted int64
	// ComposeStats, under Options.Compose, records the profile cache's
	// effectiveness over the whole search (hits, misses, re-measurements,
	// measurement spend), summed over the checkpoints' own estimator when
	// a non-default Model gives them one; nil otherwise.
	ComposeStats *compose.Stats

	Cost Cost
}

// SDCBound returns the SDC probability measured for the reported input.
func (r *Result) SDCBound() float64 { return r.Final.P }

// SDCInterval returns the true 95% bounds of the measured SDC probability.
func (r *Result) SDCInterval() (lo, hi float64) { return r.Final.Lo, r.Final.Hi }

// PipelineDynAt returns the total pipeline cost, in dynamic instructions,
// had the search been stopped at the given generation: the fixed small-input
// and sensitivity costs, the GA cost up to that generation, and the closing
// FI campaign. This is the equal budget handed to the baseline for the
// Figure 5 comparison.
func (r *Result) PipelineDynAt(gen int) int64 {
	fixed := r.Cost.SmallInputDyn + r.Cost.SensitivityDyn + r.Cost.FinalFIDyn
	if gen <= 0 || len(r.SearchDynHistory) == 0 {
		return fixed
	}
	if gen > len(r.SearchDynHistory) {
		gen = len(r.SearchDynHistory)
	}
	return fixed + r.SearchDynHistory[gen-1]
}

// Search runs the full PEPPA-X pipeline on a benchmark.
func Search(b *prog.Benchmark, opts Options, rng *xrand.RNG) (*Result, error) {
	if opts.Generations <= 0 {
		return nil, fmt.Errorf("core: Generations must be positive")
	}
	if opts.FinalTrials <= 0 {
		opts.FinalTrials = 1000
	}
	res := &Result{Benchmark: b.Name}
	tr := opts.Trace

	// Step ①: small FI input.
	t0 := time.Now()
	endPhase := tr.Phase("small_input")
	small, err := FindSmallFIInput(b, rng)
	if err != nil {
		return nil, err
	}
	res.SmallInput = small
	res.Cost.SmallInputTime = time.Since(t0)
	res.Cost.SmallInputDyn = small.DynSpent
	tr.Advance(small.DynSpent)
	endPhase()
	tr.Emit("search.small_input",
		telemetry.F("coverage", small.Coverage),
		telemetry.F("dyn", small.Golden.DynCount))

	// Steps ② and ③: pruned FI simulation for the sensitivity distribution.
	t0 = time.Now()
	endPhase = tr.Phase("sensitivity")
	// FI campaigns below replay a shared golden prefix per trial; golden-
	// prefix snapshots let them resume mid-run instead. The modeled
	// dynamic-instruction costs stay those of from-scratch trials (each
	// resumed trial's DynCount continues the golden clock), so budgets and
	// traces are unchanged; ckStats records the real work skipped.
	var ckStats interp.CheckpointStats
	sensGolden := small.Golden
	if err := sensGolden.EnsureCheckpoints(b.Prog); err != nil {
		return nil, err
	}
	// Compositional mode: one estimator (and profile cache) serves the
	// sensitivity derivation and every checkpoint measurement, so profiles
	// measured on the sensitivity golden are reused — or incrementally
	// re-measured — across all later generations. The seed is drawn off the
	// search RNG only when compose is on, keeping non-compose runs
	// bit-identical to earlier versions. The derivation measures single
	// flips; under another fault model the checkpoints get their own
	// estimator under it, on the same cache (keys hold the model) and on a
	// seed derived from the first, so no other draw moves.
	var composeEst, checkpointEst *compose.Estimator
	if opts.Compose {
		cache := opts.ComposeCache
		if cache == nil {
			cache = compose.NewCache(0)
		}
		copts := compose.Options{
			Trials:    opts.ComposeTrials,
			Threshold: opts.ComposeThreshold,
			Workers:   opts.Workers,
			Seed:      rng.Uint64(),
			Trace:     tr,
			Ctx:       opts.Ctx,
		}
		composeEst = compose.NewEstimator(b.Prog, cache, copts)
		checkpointEst = composeEst
		if opts.Model != nil {
			copts.Model = opts.Model
			copts.Seed = parallel.DeriveSeed(copts.Seed, 1)
			checkpointEst = compose.NewEstimator(b.Prog, cache, copts)
		}
	}
	dist := sensitivity.Derive(b.Prog, sensGolden, sensitivity.Options{
		TrialsPerRep: opts.TrialsPerRep,
		UsePruning:   true,
		Compose:      composeEst,
	}, rng)
	res.Distribution = dist
	ckStats.Accumulate(sensGolden.CheckpointStats())
	res.Cost.SensitivityTime = time.Since(t0)
	res.Cost.SensitivityDyn = dist.FIDynInstrs
	tr.Advance(dist.FIDynInstrs)
	endPhase()
	tr.Emit("search.sensitivity",
		telemetry.F("representatives", dist.Representatives),
		telemetry.F("fi_trials", dist.FITrials),
		telemetry.F("dyn", dist.FIDynInstrs))

	// Steps ④ and ⑤: genetic fuzzing with the dynamic-analysis fitness.
	t0 = time.Now()
	endPhase = tr.Phase("search")
	// Candidates of one generation are evaluated concurrently; the cost
	// accumulator is atomic and integer, so its per-generation totals are
	// independent of evaluation order.
	var searchDyn atomic.Int64
	fe := NewFitnessEval(b, dist.Scores)
	fitness := func(g ga.Genome) float64 {
		f, dyn := fe.Eval(g)
		searchDyn.Add(dyn)
		return f
	}
	// Seed with the small FI input, the reference input, and enough random
	// inputs to fill the population with distinct candidates.
	seeds := []ga.Genome{
		ga.Genome(small.Input).Clone(),
		ga.Genome(b.RefInput()),
	}
	for len(seeds) < opts.PopSize {
		seeds = append(seeds, ga.Genome(b.RandomInput(rng)))
	}
	engine, err := ga.New(ga.Config{
		PopSize: opts.PopSize,
		Clamp:   func(g ga.Genome) { b.ClampInput(g) },
		Fitness: fitness,
		Seed:    seeds,
		Workers: parallel.Workers(opts.Workers),
		Trace:   tr,
	}, rng.Split())
	if err != nil {
		return nil, err
	}

	checkpoints := append([]int(nil), opts.Checkpoints...)
	sort.Ints(checkpoints)
	ci := 0
	fiRNG := rng.Split() // separate stream so checkpoints don't perturb the search
	for gen := 1; gen <= opts.Generations; gen++ {
		if opts.canceled() {
			break // report the best input found so far
		}
		engine.Step()
		res.FitnessHistory = append(res.FitnessHistory, engine.Best().Fitness)
		prevDyn := int64(0)
		if len(res.SearchDynHistory) > 0 {
			prevDyn = res.SearchDynHistory[len(res.SearchDynHistory)-1]
		}
		res.SearchDynHistory = append(res.SearchDynHistory, searchDyn.Load())
		// The generation's evaluation cost is an order-independent integer
		// sum, so advancing the cost clock here keeps timestamps identical
		// for every worker count.
		tr.Advance(searchDyn.Load() - prevDyn)
		for ci < len(checkpoints) && checkpoints[ci] == gen {
			best := engine.Best()
			cp := Checkpoint{Generation: gen, BestInput: best.Genome, Fitness: best.Fitness}
			var heatG *campaign.Golden
			if g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(best.Genome), b.MaxDyn, campaign.CheckpointAuto); err == nil {
				if checkpointEst != nil {
					// Composed checkpoint: reuse cached profiles under the
					// best input's mix instead of a fresh campaign.
					cp.Estimate = checkpointEst.EstimateGolden(g).Estimate
				} else {
					cp.Estimate = overallCampaign(b.Prog, g, opts.FinalTrials, fiRNG, opts).Estimate()
				}
				ckStats.Accumulate(g.CheckpointStats())
				heatG = g
			}
			res.Checkpoints = append(res.Checkpoints, cp)
			// Checkpoint FI is reporting cost, excluded from the search
			// budget — so it is emitted but does not advance the clock.
			tr.Emit("search.checkpoint", append([]telemetry.Field{
				telemetry.F("gen", gen),
				telemetry.F("fitness", best.Fitness),
				telemetry.F("sdc", cp.P),
			}, cp.Counts.Fields()...)...)
			// The live heat map: score-weighted dynamic-execution fractions
			// of the checkpointed best input, deterministic by construction
			// (both factors are schedule-independent, ties break by id).
			if heatG != nil && opts.HeatTopK >= 0 {
				telemetry.EmitHeat(tr, "heat.topk",
					[]telemetry.Field{telemetry.F("gen", gen)},
					dist.TopHeat(heatG.InstrCounts, heatG.DynCount, opts.HeatTopK))
			}
			ci++
		}
	}
	best := engine.Best()
	res.BestInput = best.Genome
	res.BestFitness = best.Fitness
	res.Evaluations = engine.Evaluations
	res.ProfiledInputs, res.SearchDynExecuted = fe.Profiled()
	res.Cost.SearchTime = time.Since(t0)
	res.Cost.SearchDyn = searchDyn.Load()
	endPhase()

	// Closing statistical FI campaign on the reported SDC-bound input.
	t0 = time.Now()
	endPhase = tr.Phase("final_fi")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(res.BestInput), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		return nil, fmt.Errorf("core: reported input of %s is invalid: %w", b.Name, err)
	}
	if opts.CITarget > 0 {
		// Adaptive closing campaign: strata heat-ranked by the sensitivity
		// scores the pipeline already derived, seeded off one serial draw so
		// the search RNG stays deterministic.
		res.FinalAdaptive = campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{
			Workers:   opts.Workers,
			Seed:      rng.Uint64(),
			CITarget:  opts.CITarget,
			MaxTrials: opts.FinalTrials,
			Scores:    dist.Scores,
			Ctx:       opts.Ctx,
			Model:     opts.Model,
		})
		res.Final = res.FinalAdaptive.Estimate
		campaign.EmitAdaptiveTelemetry(tr, "fi.adaptive", res.FinalAdaptive)
	} else {
		res.Final = overallCampaign(b.Prog, g, opts.FinalTrials, rng, opts).Estimate()
	}
	ckStats.Accumulate(g.CheckpointStats())
	res.Cost.FinalFIDyn = res.Final.DynInstrs + g.DynCount
	res.Cost.FinalFITime = time.Since(t0)
	tr.Advance(res.Cost.FinalFIDyn)
	endPhase()
	if composeEst != nil {
		st := composeEst.Stats()
		if checkpointEst != composeEst {
			st.Add(checkpointEst.Stats())
		}
		res.ComposeStats = &st
		tr.Emit("search.compose",
			telemetry.F("hits", st.Hits),
			telemetry.F("misses", st.Misses),
			telemetry.F("remeasured", st.Remeasured),
			telemetry.F("composed", st.Composed),
			telemetry.F("measure_trials", st.MeasureTrials),
			telemetry.F("measure_dyn", st.MeasureDyn))
	}
	campaign.EmitCheckpointTelemetry(tr, "search.fi_checkpoints", ckStats)
	tr.Emit("search.final", append([]telemetry.Field{
		telemetry.F("fitness", res.BestFitness),
		telemetry.F("sdc", res.Final.P),
	}, res.Final.Fields()...)...)
	// Final heat map of the reported SDC-bound input — the state the
	// /metrics heat gauges keep serving after the search ends.
	if opts.HeatTopK >= 0 {
		telemetry.EmitHeat(tr, "heat.topk",
			[]telemetry.Field{telemetry.F("gen", opts.Generations)},
			dist.TopHeat(g.InstrCounts, g.DynCount, opts.HeatTopK))
	}
	return res, nil
}

// overallCampaign runs one whole-program FI campaign of the pipeline on
// per-trial streams seeded by one draw off the search RNG, keeping the
// search deterministic and the tally bit-identical for every worker count.
func overallCampaign(p *interp.Program, g *campaign.Golden, trials int, rng *xrand.RNG, opts Options) campaign.Counts {
	return campaign.OverallParallel(p, g, trials, campaign.ParallelOptions{
		Workers: opts.Workers,
		Seed:    rng.Uint64(),
		Ctx:     opts.Ctx,
		Model:   opts.Model,
	})
}

// Fitness is PEPPA-X's per-candidate evaluation (§4.2.5): one profiled
// execution, then fitness = Σᵢ scoreᵢ·(Nᵢ/N_total) — the accumulated SDC
// vulnerability potential over the executed path. Inputs whose fault-free
// run fails score 0 (§3.1.2 excludes error-raising inputs). It returns the
// fitness and the dynamic instructions spent.
//
// This is the one-shot convenience form. Loops evaluating many candidates
// should build a FitnessEval once and call Eval, which reuses the profiling
// context and profiles each distinct input once.
func Fitness(b *prog.Benchmark, scores []float64, input []float64) (float64, int64) {
	return NewFitnessEval(b, scores).Eval(input)
}
