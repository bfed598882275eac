package core

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// DefaultCoverageTargetFrac is the fraction of the reference input's static
// instruction coverage a small FI input must reach (§4.2.1: fuzz "until
// reaching a specified code coverage" derived from the default reference
// input).
const DefaultCoverageTargetFrac = 0.95

// smallInputRounds is the number of range-widening steps, and
// smallInputTriesPerRound the candidates drawn per step.
const (
	smallInputRounds        = 11
	smallInputTriesPerRound = 10
)

// SmallInputResult is the outcome of the step-① fuzzer.
type SmallInputResult struct {
	// Input is the found small FI input.
	Input []float64
	// Golden is its profiled fault-free run.
	Golden *campaign.Golden
	// Coverage is the input's static-instruction coverage; TargetCoverage
	// the threshold it had to reach.
	Coverage       float64
	TargetCoverage float64
	// RefCoverage and RefDynCount describe the reference input's run.
	RefCoverage float64
	RefDynCount int64
	// Attempts counts candidate inputs tried; DynSpent their total cost.
	Attempts int
	DynSpent int64
	Elapsed  time.Duration
}

// FindSmallFIInput fuzzes for an input that matches the reference input's
// code coverage at a fraction of its workload (§4.2.1). Candidates are
// drawn from the benchmark's small argument ranges, linearly widened toward
// the full ranges round by round; the first candidate reaching
// DefaultCoverageTargetFrac × reference coverage wins. If no candidate
// qualifies, the highest-coverage candidate seen is returned (and its
// Coverage field will be below TargetCoverage).
//
// Candidate runs go through one reused Profiler (no per-candidate machine
// allocation); a full Golden is only materialized for the reference input
// and when a candidate improves on the best seen.
func FindSmallFIInput(b *prog.Benchmark, rng *xrand.RNG) (*SmallInputResult, error) {
	start := time.Now()

	prof := interp.NewProfiler(b.Prog)
	var args []uint64

	args = b.EncodeInto(args[:0], b.RefInput())
	refRun := prof.Run(args, b.MaxDyn)
	refGolden, err := campaign.GoldenFromProfile(refRun, args, b.MaxDyn)
	if err != nil {
		return nil, fmt.Errorf("core: reference input of %s is invalid: %w", b.Name, err)
	}
	res := &SmallInputResult{
		TargetCoverage: DefaultCoverageTargetFrac * refGolden.Coverage(),
		RefCoverage:    refGolden.Coverage(),
		RefDynCount:    refGolden.DynCount,
	}
	res.DynSpent += refGolden.DynCount

	var bestInput []float64
	var bestGolden *campaign.Golden
	bestCov := -1.0

	for round := 0; round < smallInputRounds; round++ {
		frac := float64(round) / float64(smallInputRounds-1)
		for try := 0; try < smallInputTriesPerRound; try++ {
			in := b.RandomInputScaled(rng, frac)
			res.Attempts++
			args = b.EncodeInto(args[:0], in)
			r := prof.Run(args, b.MaxDyn)
			if r.Failed() {
				continue // invalid input; §3.1.2 excludes it
			}
			res.DynSpent += r.DynCount
			cov := r.Coverage()
			if cov > bestCov || (cov == bestCov && bestGolden != nil && r.DynCount < bestGolden.DynCount) {
				g, err := campaign.GoldenFromProfile(r, args, b.MaxDyn)
				if err != nil {
					continue
				}
				bestCov, bestInput, bestGolden = cov, in, g
			}
			if cov >= res.TargetCoverage {
				res.Input = in
				res.Golden = bestGolden
				res.Coverage = cov
				res.Elapsed = time.Since(start)
				return res, nil
			}
		}
	}
	if bestGolden == nil {
		return nil, fmt.Errorf("core: no valid small FI input found for %s", b.Name)
	}
	res.Input = bestInput
	res.Golden = bestGolden
	res.Coverage = bestCov
	res.Elapsed = time.Since(start)
	return res, nil
}
