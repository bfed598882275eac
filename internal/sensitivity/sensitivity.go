// Package sensitivity derives a program's SDC sensitivity distribution —
// the per-static-instruction SDC scores that drive the PEPPA-X genetic
// search (§4.2.3) — and quantifies the distribution's stability across
// inputs (the §3.2.3 observation, Table 3, that justifies the whole
// approach).
package sensitivity

import (
	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/interp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// DefaultTrialsPerRepresentative is the reduced FI-trial count PEPPA-X uses
// per pruning-group representative (§4.2.3: "We inject 30 random faults").
const DefaultTrialsPerRepresentative = 30

// Distribution is a program's SDC sensitivity distribution.
type Distribution struct {
	// Scores[id] is the normalized SDC score of static instruction id in
	// [0,1] — the Pᵢ proxy of Equation 2.
	Scores []float64
	// RawProb[id] is the measured (or group-propagated) SDC probability.
	RawProb []float64
	// FITrials is the number of fault-injection trials spent.
	FITrials int
	// FIDynInstrs is the total dynamic instructions executed by those
	// trials — the cost model behind Table 5.
	FIDynInstrs int64
	// Representatives is the pruned FI-space size used: pruning-group count
	// on the direct path, executed-segment count on the composed path.
	Representatives int
	// Composed, on the compositional path, is the whole-program estimate
	// the distribution was derived from (nil on the direct path).
	Composed *compose.Estimate
}

// Options configures the derivation.
type Options struct {
	// TrialsPerRep is the FI trial count per representative (default 30).
	TrialsPerRep int
	// UsePruning selects the §4.2.2 grouping heuristic; when false every
	// instruction is injected individually (the "without heuristics"
	// column of Table 5).
	UsePruning bool
	// Compose, when non-nil, derives the distribution compositionally:
	// per-segment SDC profiles (measured once, cached, re-measured only on
	// mix drift) are composed under g's dynamic mix instead of running a
	// fresh per-representative campaign. Scores become segment-constant,
	// and repeat derivations for similar inputs cost almost nothing —
	// trials and dyn spend report only what THIS derivation added.
	Compose *compose.Estimator
}

// Derive measures the SDC sensitivity distribution of the program on input
// g (normally the small FI input from the step-① fuzzer): it forms the
// §4.2.2 pruning groups (or one group per instruction without pruning) and
// measures them with DeriveGroups.
func Derive(p *interp.Program, g *campaign.Golden, opts Options, rng *xrand.RNG) *Distribution {
	if opts.Compose != nil {
		return deriveComposed(g, opts.Compose)
	}
	var groups []analysis.Group
	if opts.UsePruning {
		groups = analysis.Prune(p.Mod).Groups
	} else {
		groups = make([]analysis.Group, p.NumInstrs())
		for id := range groups {
			groups[id] = analysis.Group{Members: []int{id}, Representative: id}
		}
	}
	return DeriveGroups(p, g, groups, opts.TrialsPerRep, rng)
}

// DeriveGroups gives each group's representative trials targeted faults
// (<= 0: DefaultTrialsPerRepresentative), propagates the measured SDC
// probability to all group members and min-max normalizes it into scores.
// A representative that never executes under g is replaced by an executed
// member, so the group is still measured. All representatives are measured
// in one serial per-instruction campaign seeded by one draw off rng.
func DeriveGroups(p *interp.Program, g *campaign.Golden, groups []analysis.Group, trials int, rng *xrand.RNG) *Distribution {
	if trials <= 0 {
		trials = DefaultTrialsPerRepresentative
	}
	reps := make([]int, len(groups))
	for i, grp := range groups {
		reps[i] = grp.Representative
		if g.InstrCounts[reps[i]] > 0 {
			continue
		}
		for _, mID := range grp.Members {
			if g.InstrCounts[mID] > 0 {
				reps[i] = mID
				break
			}
		}
	}
	res := campaign.PerInstructionParallel(p, g, reps, trials, campaign.ParallelOptions{Workers: 1, Seed: rng.Uint64()})
	d := &Distribution{
		RawProb:         make([]float64, p.NumInstrs()),
		Representatives: len(groups),
	}
	for i, grp := range groups {
		c := res[i].Counts
		d.FITrials += c.Trials
		// Each trial costs roughly one golden-length execution.
		d.FIDynInstrs += int64(c.Trials) * g.DynCount
		for _, mID := range grp.Members {
			d.RawProb[mID] = c.SDCProbability()
		}
	}
	d.Scores = stats.Normalize(d.RawProb)
	return d
}

// deriveComposed builds the distribution from composed segment profiles:
// every executed instruction inherits its segment's conditional SDC rate,
// the compositional analogue of propagating a representative's measured
// probability to its pruning group. FITrials/FIDynInstrs charge only the
// profile measurement this derivation actually triggered, which is where
// the incremental savings across GA generations come from.
func deriveComposed(g *campaign.Golden, e *compose.Estimator) *Distribution {
	est := e.EstimateGolden(g)
	part := e.Partition()
	d := &Distribution{
		RawProb:     make([]float64, g.NumInstrs),
		FITrials:    est.MeasureTrials,
		FIDynInstrs: est.MeasureDyn,
		Composed:    est,
	}
	for si := range est.Segments {
		se := &est.Segments[si]
		if se.Weight == 0 {
			continue
		}
		d.Representatives++
		for _, id := range part.Segments[si].Instrs {
			if id < len(g.InstrCounts) && g.InstrCounts[id] > 0 {
				d.RawProb[id] = se.P
			}
		}
	}
	d.Scores = stats.Normalize(d.RawProb)
	return d
}

// TopHeat returns the distribution's k hottest static instructions under an
// execution profile: Scores[i] weighted by the fraction of the profiled
// run's dynTotal dynamic instructions that instruction i accounts for — the
// per-instruction term of the Equation 2 fitness sum. counts is a
// per-static-instruction execution count vector (a campaign.Golden's
// InstrCounts or the fast-path profiler's reconstruction); ties break by
// instruction id, so the selection is deterministic and safe to put in
// traces. This is the data behind the live Figure 2-style heat map.
func (d *Distribution) TopHeat(counts []int64, dynTotal int64, k int) []telemetry.HeatEntry {
	if d == nil {
		return nil
	}
	return telemetry.HeatTopK(d.Scores, counts, dynTotal, k)
}

// Stability measures how stationary the per-instruction SDC probability
// ranking is across inputs: given one per-instruction SDC probability
// vector per input, it returns the mean pairwise Spearman rank correlation
// — the per-benchmark statistic of Table 3.
func Stability(vectors [][]float64) (float64, error) {
	return stats.PairwiseMeanSpearman(vectors)
}
