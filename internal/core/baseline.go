package core

import (
	"time"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// BaselineOptions parameterizes the paper's baseline (§5.1): random input
// generation where every candidate is assessed with a full statistical FI
// campaign — "the only currently available approach that searches for the
// SDC-bound input in a program".
type BaselineOptions struct {
	// TrialsPerInput is the FI campaign size per candidate (1000 in the
	// paper).
	TrialsPerInput int
	// DynBudget stops the search once this many dynamic instructions have
	// been executed — used to match PEPPA-X's cost (Figure 5) or a
	// multiple of it (Figure 7's 5× comparison).
	DynBudget int64
	// MaxInputs optionally caps the number of candidates (0 = unlimited).
	MaxInputs int
	// Trace, when non-nil, receives one "baseline.candidate" event per
	// evaluated input (its FI tally and the cumulative budget) on a cost
	// clock advanced with the campaign's dynamic instructions; candidates
	// are drawn and folded serially, so the trace is identical for every
	// worker count.
	Trace *telemetry.Stream
	// ComposeCache, when non-nil, shares profiles with other runs on the
	// same program — e.g. a search that already profiled it (nil: a
	// private cache).
	ComposeCache *compose.Cache
	// MaxConsecutiveRejects bounds runs of invalid candidates (§3.1.2
	// excludes error-raising inputs): rejected candidates advance neither
	// DynSpent nor Inputs, so a benchmark whose random inputs are mostly
	// invalid could otherwise spin forever against a DynBudget/MaxInputs
	// stop. After this many rejections in a row the search stops
	// (<= 0: DefaultMaxConsecutiveRejects).
	MaxConsecutiveRejects int
	// FIOptions configures each candidate's evaluation: a flat
	// TrialsPerInput-trial campaign, an adaptive one capped at
	// TrialsPerInput (CITarget > 0; dyn-count strata, since the baseline
	// has no sensitivity scores), or a compositional estimate (Compose, which
	// charges the budget only the golden run plus the measurement each
	// candidate triggered). With no sensitivity scores, heat events at each
	// new best reduce to dynamic-execution fractions.
	FIOptions
}

// DefaultMaxConsecutiveRejects is the rejection run length at which
// RandomSearch gives up on finding a valid candidate. Benchmarks draw valid
// inputs with probability near 1, so a thousand straight rejections means
// the generator and the validity predicate disagree, not bad luck.
const DefaultMaxConsecutiveRejects = 1000

// BaselinePoint is one step of the baseline's progress curve.
type BaselinePoint struct {
	Input    []float64
	SDC      float64
	DynSpent int64 // cumulative cost after evaluating this input
	BestSDC  float64
}

// BaselineResult is the outcome of a baseline search.
type BaselineResult struct {
	BestInput []float64
	Best      campaign.Counts
	BestSDC   float64
	Inputs    int // candidates evaluated
	// Rejected counts invalid candidates (golden run failed), which are
	// excluded per §3.1.2 and advance neither Inputs nor DynSpent.
	Rejected int
	History  []BaselinePoint
	DynSpent int64
	Elapsed  time.Duration
	// BestComposed, under Options.Compose, is the best candidate's full
	// composed estimate (Best then pools its profile trials and BestSDC is
	// the composed rate); ComposeStats records cache effectiveness.
	BestComposed *compose.Estimate
	ComposeStats *compose.Stats
}

// RandomSearch runs the baseline: draw uniform random inputs, measure each
// with a statistical FI campaign, and keep the input with the highest SDC
// probability, until the dynamic-instruction budget is exhausted.
//
// The paper notes (§5.2) that the baseline parallelizes trivially because
// FI trials are independent; each candidate's 1000-trial campaign fans out
// over campaign.OverallParallel. Candidate generation, budget accounting
// and best-tracking stay serial on the caller's RNG, and the campaign seed
// is drawn serially per candidate, so the search is deterministic and
// independent of opts.Workers.
func RandomSearch(b *prog.Benchmark, opts BaselineOptions, rng *xrand.RNG) *BaselineResult {
	if opts.TrialsPerInput <= 0 {
		opts.TrialsPerInput = 1000
	}
	maxRejects := opts.MaxConsecutiveRejects
	if maxRejects <= 0 {
		maxRejects = DefaultMaxConsecutiveRejects
	}
	start := time.Now()
	tr := opts.Trace
	endPhase := tr.Phase("baseline")
	res := &BaselineResult{BestSDC: -1}
	// Compositional candidate evaluation: one estimator for the whole
	// search, so profiles carry across candidates. The seed draw happens
	// only in compose mode, keeping non-compose runs bit-identical to
	// earlier versions.
	var composeEst *compose.Estimator
	if opts.Compose {
		composeEst = compose.NewEstimator(b.Prog, opts.ComposeCache, compose.Options{
			Trials:    opts.ComposeTrials,
			Threshold: opts.ComposeThreshold,
			Workers:   opts.Workers,
			Seed:      rng.Uint64(),
			Trace:     tr,
			Model:     opts.Model,
		})
	}
	var ckStats interp.CheckpointStats
	var args []uint64 // reused encoding buffer; goldens are per-iteration
	rejects := 0
	for {
		if opts.DynBudget > 0 && res.DynSpent >= opts.DynBudget {
			break
		}
		if opts.MaxInputs > 0 && res.Inputs >= opts.MaxInputs {
			break
		}
		in := b.RandomInput(rng)
		args = b.EncodeInto(args[:0], in)
		g, err := campaign.NewGoldenCheckpointed(b.Prog, args, b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			// Invalid input, excluded per §3.1.2. Rejections advance neither
			// budget nor input count, so a bounded run of them is the only
			// guard against spinning forever on a generator that cannot
			// produce valid candidates.
			res.Rejected++
			rejects++
			if rejects >= maxRejects {
				break
			}
			continue
		}
		rejects = 0
		res.DynSpent += g.DynCount
		var (
			c        campaign.Counts
			sdc      float64
			ce       *compose.Estimate
			spentDyn int64
		)
		if composeEst != nil {
			ce = composeEst.EstimateGolden(g)
			c = ce.Counts
			sdc = ce.SDC
			// Cached profile trials were paid for by earlier candidates;
			// the budget charges only what this candidate's evaluation
			// added.
			spentDyn = ce.MeasureDyn
		} else if opts.CITarget > 0 {
			ar := campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{
				Workers:   opts.Workers,
				Seed:      rng.Uint64(),
				CITarget:  opts.CITarget,
				MaxTrials: opts.TrialsPerInput,
				Model:     opts.Model,
			})
			c = ar.Counts
			sdc = ar.Estimate
			campaign.EmitAdaptiveTelemetry(tr, "fi.adaptive", ar)
		} else {
			c = campaign.OverallParallel(b.Prog, g, opts.TrialsPerInput, campaign.ParallelOptions{
				Workers: opts.Workers,
				Seed:    rng.Uint64(),
				Model:   opts.Model,
			})
			sdc = c.SDCProbability()
		}
		if composeEst == nil {
			spentDyn = c.DynInstrs
		}
		res.DynSpent += spentDyn
		ckStats.Accumulate(g.CheckpointStats())
		res.Inputs++
		newBest := sdc > res.BestSDC
		if newBest {
			res.BestSDC = sdc
			res.BestInput = in
			res.Best = c
			res.BestComposed = ce
		}
		res.History = append(res.History, BaselinePoint{
			Input: in, SDC: sdc, DynSpent: res.DynSpent, BestSDC: res.BestSDC,
		})
		tr.Advance(g.DynCount + spentDyn)
		tr.Emit("baseline.candidate", append([]telemetry.Field{
			telemetry.F("input", res.Inputs-1),
			telemetry.F("sdc", sdc),
			telemetry.F("best_sdc", res.BestSDC),
			telemetry.F("rejected", res.Rejected),
		}, c.Fields()...)...)
		// Each new best updates the live heat map. With no sensitivity
		// scores in the baseline, heat is the pure dynamic-execution
		// fraction (nil score vector).
		if newBest && opts.HeatTopK >= 0 {
			telemetry.EmitHeatTopK(tr, "heat.topk",
				[]telemetry.Field{telemetry.F("input", res.Inputs-1)},
				nil, g.InstrCounts, g.DynCount, opts.HeatTopK)
		}
	}
	if res.BestSDC < 0 {
		res.BestSDC = 0
	}
	res.Elapsed = time.Since(start)
	endPhase()
	campaign.EmitCheckpointTelemetry(tr, "baseline.checkpoints", ckStats)
	if composeEst != nil {
		st := composeEst.Stats()
		res.ComposeStats = &st
		tr.Emit("baseline.compose",
			telemetry.F("hits", st.Hits),
			telemetry.F("misses", st.Misses),
			telemetry.F("remeasured", st.Remeasured),
			telemetry.F("composed", st.Composed),
			telemetry.F("measure_trials", st.MeasureTrials),
			telemetry.F("measure_dyn", st.MeasureDyn))
	}
	tr.Emit("baseline.done",
		telemetry.F("inputs", res.Inputs),
		telemetry.F("best_sdc", res.BestSDC),
		telemetry.F("rejected", res.Rejected))
	return res
}

// EvaluateInputCost measures the per-input evaluation cost of both methods
// for Table 6: PEPPA-X assesses a candidate with one profiled execution,
// the baseline with a golden run plus a TrialsPerInput-trial FI campaign.
// It returns (peppaDyn, baselineDyn, peppaTime, baselineTime).
func EvaluateInputCost(b *prog.Benchmark, input []float64, trials int, rng *xrand.RNG) (int64, int64, time.Duration, time.Duration, error) {
	scores := make([]float64, b.Prog.NumInstrs()) // fitness cost is score-independent
	t0 := time.Now()
	_, peppaDyn := Fitness(b, scores, input)
	peppaTime := time.Since(t0)

	t0 = time.Now()
	g, err := campaign.NewGolden(b.Prog, b.Encode(input), b.MaxDyn)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// One worker: Table 6 reports single-thread cost per input.
	c := campaign.OverallParallel(b.Prog, g, trials, campaign.ParallelOptions{Workers: 1, Seed: rng.Uint64()})
	baselineTime := time.Since(t0)
	baselineDyn := g.DynCount + c.DynInstrs
	return peppaDyn, baselineDyn, peppaTime, baselineTime, nil
}
