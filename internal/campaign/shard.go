package campaign

// Trial-level campaign sharding. A flat campaign of N trials derives every
// trial's randomness from (Seed, global trial index) alone, so any partition
// of the index space into contiguous ranges — executed by different worker
// pools, goroutine groups or peer processes — folds back to exactly the
// counts a single process computes, as long as the per-range tallies merge
// in range order. This file provides the range math (ShardRange), the
// per-shard executor (OverallShard), the in-process fan-out
// (OverallSharded) and the generic round splitter (ShardedRunner) the
// adaptive and compose layers plug in through their Runner hooks.

import (
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/parallel"
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
// stream derive from its GLOBAL index, so summing shard tallies in shard
// order (Counts.Merge) is bit-identical to the unsharded run for any shard
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
	return tally(RunPlans(p, g, plans, func(i int) *xrand.RNG { return rngs[i] }, opts))
}

// OverallSharded splits a flat campaign into `shards` contiguous ranges,
// runs them concurrently in-process, and merges the tallies in shard order
// — bit-identical to OverallParallel(p, g, trials, opts) at every shard
// count. Each shard runs with the caller's Workers/BatchSize; callers that
// use shards as the unit of concurrency should set Workers to 1 to avoid
// oversubscribing the pool.
func OverallSharded(p *interp.Program, g *Golden, trials, shards int, opts ParallelOptions) Counts {
	if shards <= 1 {
		return OverallParallel(p, g, trials, opts)
	}
	tallies := make([]Counts, shards)
	parallel.ForEach(shards, shards, func(s int) {
		lo, hi := ShardRange(trials, s, shards)
		tallies[s] = OverallShard(p, g, lo, hi, opts)
	})
	var c Counts
	for _, t := range tallies {
		c.Merge(t)
	}
	return c
}

// TrialRunner executes one pre-planned set of trials — the signature of
// RunPlans, which is also its contract: results are returned in plan order
// and depend only on (plans, rngFor), never on scheduling. The adaptive
// campaign (AdaptiveOptions.Runner) and the compose estimator
// (compose.Options.Runner) accept a TrialRunner so a service can shard
// their measurement rounds without either layer knowing about shards.
type TrialRunner func(p *interp.Program, g *Golden, plans []fault.Plan, rngFor func(i int) *xrand.RNG, opts ParallelOptions) []TrialResult

// ShardedRunner returns a TrialRunner that splits each plan list into
// `shards` contiguous ranges, runs the ranges concurrently through
// RunPlans, and reassembles the results in plan order. Because RunPlans
// results depend only on the plans and streams, the sharded runner is
// bit-identical to plain RunPlans at every shard count.
func ShardedRunner(shards int) TrialRunner {
	return func(p *interp.Program, g *Golden, plans []fault.Plan, rngFor func(i int) *xrand.RNG, opts ParallelOptions) []TrialResult {
		if shards <= 1 || len(plans) <= 1 {
			return RunPlans(p, g, plans, rngFor, opts)
		}
		res := make([]TrialResult, len(plans))
		parallel.ForEach(shards, shards, func(s int) {
			lo, hi := ShardRange(len(plans), s, shards)
			if hi <= lo {
				return
			}
			sub := RunPlans(p, g, plans[lo:hi], func(i int) *xrand.RNG { return rngFor(lo + i) }, opts)
			copy(res[lo:hi], sub)
		})
		return res
	}
}
