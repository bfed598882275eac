// Package duplication implements the paper's §6 case study: selective
// instruction duplication, the popular SDC protection technique PEPPA-X
// stress-tests.
//
// Protection selection is the classical 0-1 knapsack formulation [39]: the
// cost of duplicating instruction i is its dynamic execution count Nᵢ (the
// runtime overhead of executing the duplicate), the benefit is its SDC
// contribution Pᵢ·Nᵢ, and the capacity is a performance-overhead budget
// (30 %, 50 % or 70 % of total dynamic instructions in the paper). Per the
// published methodology, per-instruction SDC probabilities are measured
// with the *default reference input*; the case study shows the resulting
// protection is compromised under SDC-bound inputs.
//
// Detection semantics: duplicating an instruction and comparing the two
// results catches any single corruption of that instruction's return value
// before it propagates. Under the single-bit-flip, single-fault model this
// is exact, so the stress-test campaign models protection as a detector
// predicate over fault sites (campaign.ParallelOptions.Detector) rather than
// rewriting the IR. The package's campaigns run on one worker: their
// callers (the experiment suite) already fan out.
package duplication

import (
	"math"
	"sort"

	"repro/internal/campaign"
	"repro/internal/interp"
	"repro/internal/xrand"
)

// InstrProfile is the per-instruction measurement protection is based on.
type InstrProfile struct {
	ID        int
	SDCProb   float64
	ExecCount int64
}

// Profile measures per-instruction SDC probabilities and execution counts
// on the given input (the paper uses the default reference input here).
func Profile(p *interp.Program, g *campaign.Golden, trialsPerInstr int, rng *xrand.RNG) []InstrProfile {
	ids := campaign.AllInstructionIDs(p)
	results := campaign.PerInstructionParallel(p, g, ids, trialsPerInstr, campaign.ParallelOptions{Workers: 1, Seed: rng.Uint64()})
	out := make([]InstrProfile, len(results))
	for i, r := range results {
		out[i] = InstrProfile{
			ID:        r.ID,
			SDCProb:   r.Counts.SDCProbability(),
			ExecCount: g.InstrCounts[r.ID],
		}
	}
	return out
}

// Protection is a selected instruction set to duplicate.
type Protection struct {
	// Protected lists the selected static instruction IDs.
	Protected []int
	// IsProtected[id] reports membership.
	IsProtected []bool
	// CostDyn is the selection's dynamic-instruction overhead (Σ Nᵢ) and
	// Budget the knapsack capacity it had to fit.
	CostDyn int64
	Budget  int64
	// Benefit is the selection's total SDC contribution (Σ Pᵢ·Nᵢ).
	Benefit float64
}

// Detector returns the predicate for campaign.ParallelOptions.Detector.
func (pr *Protection) Detector() func(int) bool {
	return func(id int) bool {
		return id >= 0 && id < len(pr.IsProtected) && pr.IsProtected[id]
	}
}

// Overhead returns the selection's runtime overhead as a fraction of the
// profiled run's dynamic instructions.
func (pr *Protection) Overhead(totalDyn int64) float64 {
	if totalDyn == 0 {
		return 0
	}
	return float64(pr.CostDyn) / float64(totalDyn)
}

// knapsackBuckets is the scaled weight resolution of the DP. Larger values
// approximate the exact knapsack better at linear cost.
const knapsackBuckets = 2000

// Select solves the 0-1 knapsack: maximize Σ Pᵢ·Nᵢ over selections with
// Σ Nᵢ ≤ level·totalDyn. Weights are scaled to knapsackBuckets buckets;
// items with zero scaled weight or zero benefit are handled outside the DP
// (free items are always taken when beneficial).
func Select(profiles []InstrProfile, totalDyn int64, level float64) *Protection {
	if level < 0 {
		level = 0
	}
	capacity := int64(level * float64(totalDyn))
	n := 0
	for _, p := range profiles {
		if p.ID >= n {
			n = p.ID + 1
		}
	}
	pr := &Protection{IsProtected: make([]bool, n), Budget: capacity}

	// Partition items: zero-benefit items are never selected; zero-weight
	// items (never executed under the profiling input — they cost nothing
	// at runtime) are taken whenever they have benefit.
	type item struct {
		id     int
		weight int64
		value  float64
	}
	var items []item
	for _, p := range profiles {
		value := p.SDCProb * float64(p.ExecCount)
		if p.ExecCount == 0 {
			continue // no cost, no measurable benefit on this input
		}
		if value <= 0 {
			continue
		}
		items = append(items, item{id: p.ID, weight: p.ExecCount, value: value})
	}
	if capacity <= 0 || len(items) == 0 {
		return pr
	}

	// Scale weights into buckets, rounding up so the capacity is honoured.
	scale := float64(knapsackBuckets) / float64(capacity)
	cap := knapsackBuckets
	w := make([]int, len(items))
	for i, it := range items {
		sw := int(math.Ceil(float64(it.weight) * scale))
		if sw < 1 {
			sw = 1
		}
		w[i] = sw
	}

	// 0-1 knapsack DP over scaled capacity, tracking choices.
	dp := make([]float64, cap+1)
	take := make([][]bool, len(items))
	for i := range items {
		take[i] = make([]bool, cap+1)
		for c := cap; c >= w[i]; c-- {
			cand := dp[c-w[i]] + items[i].value
			if cand > dp[c] {
				dp[c] = cand
				take[i][c] = true
			}
		}
	}
	// Recover the chosen set.
	c := cap
	for i := len(items) - 1; i >= 0; i-- {
		if take[i][c] {
			pr.IsProtected[items[i].id] = true
			pr.Protected = append(pr.Protected, items[i].id)
			pr.CostDyn += items[i].weight
			pr.Benefit += items[i].value
			c -= w[i]
		}
	}
	sort.Ints(pr.Protected)
	return pr
}

// CoverageResult compares SDC probability with and without protection under
// one input, yielding the SDC coverage the protection provides there.
type CoverageResult struct {
	Unprotected campaign.Counts
	Protected   campaign.Counts
	// Coverage = 1 - SDC_protected / SDC_unprotected; 1 when the
	// unprotected program shows no SDCs at all.
	Coverage float64
}

// MeasureCoverage runs paired FI campaigns on one input — the same trials
// with and without the protection detector, on one seed drawn off rng —
// and computes the achieved SDC coverage. The detector only reclassifies
// trials, so the protected campaign never has more SDCs than the
// unprotected one.
func MeasureCoverage(p *interp.Program, g *campaign.Golden, pr *Protection, trials int, rng *xrand.RNG) CoverageResult {
	opts := campaign.ParallelOptions{Workers: 1, Seed: rng.Uint64()}
	res := CoverageResult{Unprotected: campaign.OverallParallel(p, g, trials, opts)}
	opts.Detector = pr.Detector()
	res.Protected = campaign.OverallParallel(p, g, trials, opts)
	res.Coverage = 1
	if pu := res.Unprotected.SDCProbability(); pu > 0 {
		res.Coverage = 1 - res.Protected.SDCProbability()/pu
	}
	return res
}

// StressLevel is one row of the Figure 9 experiment.
type StressLevel struct {
	Level float64
	// Expected is the coverage measured with the reference input — what
	// developers believe they deployed.
	Expected CoverageResult
	// Actual is the coverage measured with the SDC-bound input.
	Actual CoverageResult
	// Protection is the knapsack selection at this level.
	Protection *Protection
}

// StressTest reproduces the §6 experiment for one program: select
// protection from reference-input profiles at each overhead level, measure
// the expected coverage on the reference input, then stress-test with the
// SDC-bound input.
func StressTest(p *interp.Program, refGolden, boundGolden *campaign.Golden, profiles []InstrProfile, levels []float64, trials int, rng *xrand.RNG) []StressLevel {
	out := make([]StressLevel, 0, len(levels))
	for _, level := range levels {
		pr := Select(profiles, refGolden.DynCount, level)
		out = append(out, StressLevel{
			Level:      level,
			Protection: pr,
			Expected:   MeasureCoverage(p, refGolden, pr, trials, rng),
			Actual:     MeasureCoverage(p, boundGolden, pr, trials, rng),
		})
	}
	return out
}
