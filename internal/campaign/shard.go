package campaign

// Trial ranges. A flat campaign of N trials derives every trial's
// randomness from (Seed, global trial index) alone, so any partition of the
// index space into contiguous ranges, run by different processes, folds
// back to exactly the counts a single process computes, as long as the
// per-range tallies merge in range order. This file provides the range math
// (ShardRange), the per-range executor (OverallShard) and the round-executor
// hook (TrialRunner) the adaptive and compose layers accept. Inside one
// process, ParallelOptions.Workers is the only fan-out.

import (
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/xrand"
)

// ShardRange returns the half-open global trial range [lo, hi) of shard
// `shard` out of `shards` for an N-trial campaign. Ranges are contiguous,
// cover [0, trials) exactly once, and differ in size by at most one trial.
func ShardRange(trials, shard, shards int) (lo, hi int) {
	if shards < 1 {
		shards = 1
	}
	if shard < 0 || shard >= shards {
		return 0, 0
	}
	return trials * shard / shards, trials * (shard + 1) / shards
}

// OverallShard runs the global trial indices [lo, hi) of a flat campaign
// and returns their tally — the one implementation of the flat campaign
// (OverallParallel is the range [0, trials)). Each trial's plan and RNG
// stream derive from its GLOBAL index, so summing range tallies in range
// order (Counts.Merge) is bit-identical to the whole run for any range
// layout — including a remote process that knows only (seed, lo, hi,
// golden).
func OverallShard(p *interp.Program, g *Golden, lo, hi int, opts ParallelOptions) Counts {
	if hi <= lo {
		return Counts{}
	}
	n := hi - lo
	plans := make([]fault.Plan, n)
	rngs := make([]*xrand.RNG, n)
	for i := range plans {
		rngs[i] = trialRNG(opts.Seed, lo+i)
		plans[i] = samplePlan(opts.Model, rngs[i], g.DynCount)
	}
	return Tally(RunPlans(p, g, plans, func(i int) *xrand.RNG { return rngs[i] }, opts))
}

// TrialRunner executes one pre-planned set of trials — the signature of
// RunPlans, which is also its contract: results are returned in plan order
// and depend only on (plans, rngFor), never on scheduling. The adaptive
// campaign (AdaptiveOptions.Runner) and the compose estimator
// (compose.Options.Runner) accept a TrialRunner so a caller can wrap
// RunPlans, e.g. to meter each round's spend, without either layer knowing
// about it.
type TrialRunner func(p *interp.Program, g *Golden, plans []fault.Plan, rngFor func(i int) *xrand.RNG, opts ParallelOptions) []TrialResult
