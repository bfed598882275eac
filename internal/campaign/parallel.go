package campaign

import (
	"context"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// The paper notes (§5.2) that both PEPPA-X and the baseline parallelize
// trivially — FI trials are independent — but reports unparallelized
// numbers for fairness. This file provides the campaign runners, built on
// the repository-wide deterministic worker pool (internal/parallel).
// Determinism is preserved by deriving each trial's RNG from (seed, trial
// index) rather than sharing a stream, so results are independent of
// scheduling and worker count; Workers: 1 is the serial schedule.

// ParallelOptions configures a campaign.
type ParallelOptions struct {
	// Workers is the goroutine count (<= 0: GOMAXPROCS).
	Workers int
	// Seed derives each trial's private RNG stream.
	Seed uint64
	// Detector optionally models protection: faults landing on static
	// instructions for which it returns true classify as Detected (the §6
	// stress-test case study).
	Detector func(staticID int) bool
	// BatchSize groups trials that resume from the same checkpoint into
	// lockstep interp.BatchRun executions of at most this size, sharing one
	// trunk replay per batch (<= 1 keeps the per-trial path). Trial plans
	// and RNG streams are derived exactly as on the per-trial path, so
	// results are bit-identical at every batch size and worker count.
	//
	// No front end, job or option struct above this one sets it: every
	// campaign they start runs trial by trial, which measures as fast. It
	// stays only for the benchmark's batch-64 campaign class and the
	// library equivalence suites, until the lockstep executor is deleted.
	BatchSize int
	// Ctx, when non-nil, cancels the campaign cooperatively: trials stop at
	// the next trial (or checkpoint) boundary after cancellation and the
	// runner returns the tally of the trials that completed. Completed
	// trials keep their exact deterministic outcomes — cancellation only
	// truncates, never perturbs. Nil (or context.Background) adds one nil
	// check per trial.
	Ctx context.Context
	// Model selects the fault model whole-program trials sample from. Nil is
	// the single-bit-flip default, byte-identical to the historical
	// hardcoded path. Per-instruction campaigns ignore it (they target
	// specific static instructions with the paper's single-flip model).
	Model fault.Model
}

// samplePlan draws one whole-program plan from a trial's private stream
// under the selected model (nil: the single-bit-flip default, whose draws
// are bit-identical to fault.SampleDynamic).
func samplePlan(m fault.Model, rng *xrand.RNG, totalDyn int64) fault.Plan {
	if m == nil {
		return fault.SampleDynamic(rng, totalDyn)
	}
	return m.Sample(rng, totalDyn)
}

// trialRNG derives the deterministic per-trial stream.
func trialRNG(seed uint64, trial int) *xrand.RNG {
	return xrand.New(seed ^ (uint64(trial)+1)*0x9E3779B97F4A7C15)
}

// OverallParallel measures the whole-program SDC probability of an input
// with `trials` faults drawn from opts.Model (the paper uses 1000 single-bit
// flips), fanning trials across workers. It is OverallShard over the whole
// range [0, trials): each trial's plan and stream depend only on (Seed,
// trial index) and trials fold in index order, so the tally is identical
// for every Workers, BatchSize and shard layout.
func OverallParallel(p *interp.Program, g *Golden, trials int, opts ParallelOptions) Counts {
	return OverallShard(p, g, 0, trials, opts)
}

// PerInstructionParallel measures the SDC probability of each static
// instruction in ids with trialsPerInstr faults targeted at random dynamic
// occurrences of that instruction (the paper's per-instruction
// methodology); instructions that never execute under the input get a
// zero-trial result. The instruction list fans out across workers and each
// instruction's plans come from a stream seeded by (Seed, ID), so results
// are identical for every Workers and BatchSize.
func PerInstructionParallel(p *interp.Program, g *Golden, ids []int, trialsPerInstr int, opts ParallelOptions) []InstrResult {
	return parallel.Map(opts.Workers, len(ids), func(k int) InstrResult {
		id := ids[k]
		res := InstrResult{ID: id}
		execCount := g.InstrCounts[id]
		if execCount <= 0 {
			return res
		}
		ty := p.InstrType(id)
		rng := trialRNG(opts.Seed, id)
		plans := make([]fault.Plan, trialsPerInstr)
		for t := range plans {
			plans[t] = fault.SampleStatic(rng, id, ty, execCount)
		}
		// Static plans draw their fault bits eagerly, so the trials share
		// the instruction's stream without consuming it. One worker: the
		// instruction-level fan-out already occupies the pool.
		res.Counts = tally(RunPlans(p, g, plans, func(int) *xrand.RNG { return rng }, ParallelOptions{
			Workers: 1, BatchSize: opts.BatchSize, Ctx: opts.Ctx,
		}))
		return res
	})
}

// tally folds trial results in index order, skipping the trials
// cancellation left unrun.
func tally(res []TrialResult) Counts {
	var c Counts
	for _, t := range res {
		if t.Skipped {
			continue
		}
		c.Add(t.Outcome)
		c.DynInstrs += t.Dyn
	}
	return c
}

// TrialResult is one classified FI trial: its outcome and the dynamic
// instructions the faulty run spent. Skipped marks a trial cancellation
// left unrun — its Outcome and Dyn are meaningless and must not be folded.
type TrialResult struct {
	Outcome Outcome
	Dyn     int64
	Skipped bool
}

// RunPlans classifies one trial per pre-sampled plan against the golden and
// returns the results in plan order. rngFor supplies trial i's RNG, used
// only for fault bits a plan left pending; a trial with pending bits must
// get a stream derived only from its index, never one shared across
// trials. With
// opts.BatchSize > 1, trials sharing a checkpoint run in lockstep batches;
// either way results depend only on (plans, rngFor), not on opts.Workers or
// opts.BatchSize, so callers composing measurements from RunPlans inherit
// the repository's bit-identity contract. opts.Seed is ignored — the plans
// and rngFor already carry all randomness.
func RunPlans(p *interp.Program, g *Golden, plans []fault.Plan, rngFor func(i int) *xrand.RNG, opts ParallelOptions) []TrialResult {
	res := make([]TrialResult, len(plans))
	for i := range res {
		res[i].Skipped = true // until the trial runs
	}
	if opts.BatchSize <= 1 {
		// One trial machine per worker, built on first use and dropped on
		// return, so no machine memory outlives the call.
		machines := make([]*interp.Injector, parallel.Workers(opts.Workers))
		parallel.ForEachWorker(opts.Workers, len(plans), func(w, i int) {
			if ctxCanceled(opts.Ctx) {
				return
			}
			if machines[w] == nil {
				machines[w] = interp.NewInjector(p)
			}
			o, r := Classify(machines[w], g, &plans[i], rngFor(i), opts.Detector)
			res[i] = TrialResult{Outcome: o, Dyn: r.DynCount}
		})
		return res
	}
	// Lockstep path: trials resuming from the same snapshot run as one
	// BatchRun, and the batches fan out across workers. Batch telemetry
	// accumulates into g.Checkpoints (atomic, nil-safe). Once ctx is
	// canceled, in-flight batches stop at their next boundary.
	jobs := batchJobs(g, plans, opts.BatchSize)
	budget := g.DynCount*hangBudgetMultiplier + hangBudgetSlack
	done := ctxDone(opts.Ctx)
	parallel.ForEach(opts.Workers, len(jobs), func(j int) {
		if ctxCanceled(opts.Ctx) {
			return
		}
		job := &jobs[j]
		bt := make([]interp.BatchTrial, len(job.idx))
		for k, i := range job.idx {
			bt[k] = interp.BatchTrial{Plan: plans[i], RNG: rngFor(i)}
		}
		st := interp.BatchRun(p, g.Input, g.Checkpoints, job.snap, bt, interp.Options{MaxDyn: budget, Done: done}, func(k int, r *interp.Result) {
			res[job.idx[k]] = TrialResult{Outcome: classifyResult(g, r, opts.Detector), Dyn: r.DynCount}
		})
		g.Checkpoints.NoteBatch(st)
	})
	return res
}

// batchJob is one BatchRun dispatch: trial indices sharing a base snapshot.
type batchJob struct {
	snap *interp.Snapshot
	idx  []int
}

// batchJobs groups trial indices by the snapshot each plan resumes from,
// preserving index order within a group, then chunks groups to at most size
// trials (the final chunk of a group may be smaller). The grouping is a
// pure function of the plans and the golden's snapshots, so the job list —
// and with it every fork point — is deterministic.
func batchJobs(g *Golden, plans []fault.Plan, size int) []batchJob {
	groups := make(map[*interp.Snapshot]int)
	var jobs []batchJob
	for i := range plans {
		s := g.Checkpoints.ForPlan(&plans[i])
		j, ok := groups[s]
		if !ok || len(jobs[j].idx) >= size {
			jobs = append(jobs, batchJob{snap: s})
			j = len(jobs) - 1
			groups[s] = j
		}
		jobs[j].idx = append(jobs[j].idx, i)
	}
	return jobs
}
