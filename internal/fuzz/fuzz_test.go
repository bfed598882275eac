package fuzz

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// clampUnit keeps candidates inside [0,10]^dim.
func clampUnit(v []float64) {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
		if v[i] > 10 {
			v[i] = 10
		}
	}
}

// sumExec scores a candidate by its coordinate sum and reports one counter
// per unit of the sum — a smooth objective with workload-scaling counters.
func sumExec(input []float64) (float64, []int64, bool) {
	var s float64
	for _, v := range input {
		s += v
	}
	counters := make([]int64, 4)
	counters[0] = 1
	if s > 5 {
		counters[1] = int64(s)
	}
	if s > 15 {
		counters[2] = int64(s)
	}
	if s > 25 {
		counters[3] = int64(s)
	}
	return s, counters, true
}

func TestRunValidatesOptions(t *testing.T) {
	rng := xrand.New(1)
	seeds := [][]float64{{1, 1}}
	cases := []Options{
		{Dim: 0, Clamp: clampUnit, Seeds: seeds, Budget: 10},
		{Dim: 2, Clamp: nil, Seeds: seeds, Budget: 10},
		{Dim: 2, Clamp: clampUnit, Seeds: nil, Budget: 10},
		{Dim: 2, Clamp: clampUnit, Seeds: seeds, Budget: 0},
	}
	for i, o := range cases {
		if _, err := Run(o, sumExec, rng); err == nil {
			t.Fatalf("case %d: want error, got none", i)
		}
	}
	if _, err := Run(Options{Dim: 2, Clamp: clampUnit, Seeds: seeds, Budget: 10}, nil, rng); err == nil {
		t.Fatal("nil exec: want error, got none")
	}
}

func TestRunRespectsBudgetExactly(t *testing.T) {
	res, err := Run(Options{
		Dim: 2, Clamp: clampUnit, Seeds: [][]float64{{1, 1}, {2, 2}}, Budget: 37,
	}, sumExec, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 37 {
		t.Fatalf("executions = %d, want exactly the budget 37", res.Executions)
	}
	if len(res.History) != 37 {
		t.Fatalf("history length = %d, want 37", len(res.History))
	}
}

func TestRunStopsAtTarget(t *testing.T) {
	res, err := Run(Options{
		Dim: 2, Clamp: clampUnit, Seeds: [][]float64{{1, 1}}, Budget: 10000, Target: 12,
	}, sumExec, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TargetHit {
		t.Fatalf("target 12 not hit: best %.3f in %d execs", res.BestScore, res.Executions)
	}
	if res.BestScore < 12 {
		t.Fatalf("TargetHit with best %.3f < target", res.BestScore)
	}
	if res.Executions >= 10000 {
		t.Fatal("target stop did not short-circuit the budget")
	}
}

func TestRunDeterministic(t *testing.T) {
	opts := Options{Dim: 3, Clamp: clampUnit, Seeds: [][]float64{{1, 2, 3}}, Budget: 200}
	a, err := Run(opts, sumExec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts, sumExec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestScore != b.BestScore || a.Executions != b.Executions || a.CorpusSize != b.CorpusSize {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("same seed diverged at best[%d]", i)
		}
	}
}

func TestRunClimbsStaircase(t *testing.T) {
	// Staircase objective: score is the tier index, flat between thresholds.
	// Only guided stepping (bucket novelty + pursuit) climbs it reliably
	// within a tight budget starting from a cold corner.
	exec := func(in []float64) (float64, []int64, bool) {
		var s float64
		for _, v := range in {
			s += v
		}
		counters := make([]int64, 4)
		counters[0] = int64(s) + 1
		score := 0.0
		for tier, thr := range []float64{8, 16, 24} {
			if s > thr {
				score = float64(tier + 1)
				counters[tier+1] = int64(s - thr)
			}
		}
		return score, counters, true
	}
	res, err := Run(Options{
		Dim: 3, Clamp: clampUnit, Seeds: [][]float64{{1, 1, 1}}, Budget: 300, Target: 3,
		// Range redraw, as the small-input search uses: local ±10 % moves
		// cannot leave a cold corner when the objective is flat there.
		MutateAt: func(v []float64, i int, rng *xrand.RNG) { v[i] = rng.Range(0, 10) },
	}, exec, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TargetHit {
		t.Fatalf("staircase top not reached: best %.1f after %d execs", res.BestScore, res.Executions)
	}
}

func TestRunInvalidCandidatesExcluded(t *testing.T) {
	// Candidates with any coordinate above 5 are invalid; the run must still
	// produce a best from the valid region and never return an invalid best.
	exec := func(in []float64) (float64, []int64, bool) {
		var s float64
		for _, v := range in {
			if v > 5 {
				return 0, nil, false
			}
			s += v
		}
		return s, []int64{1, int64(s)}, true
	}
	res, err := Run(Options{
		Dim: 2, Clamp: clampUnit, Seeds: [][]float64{{1, 1}}, Budget: 150,
	}, exec, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no valid best found")
	}
	for i, v := range res.Best {
		if v > 5 {
			t.Fatalf("best[%d] = %.3f from the invalid region", i, v)
		}
	}
}

func TestRunAllSeedsInvalid(t *testing.T) {
	// An exec that rejects everything: the run must exhaust its budget
	// without a best candidate rather than hang or crash.
	exec := func(in []float64) (float64, []int64, bool) { return 0, nil, false }
	res, err := Run(Options{
		Dim: 2, Clamp: clampUnit, Seeds: [][]float64{{1, 1}}, Budget: 25,
	}, exec, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil || res.TargetHit {
		t.Fatalf("invalid-only run produced a best: %+v", res)
	}
	if res.Executions != 25 {
		t.Fatalf("executions = %d, want 25", res.Executions)
	}
}

func TestRunCorpusCap(t *testing.T) {
	res, err := Run(Options{
		Dim: 2, Clamp: clampUnit, Seeds: [][]float64{{1, 1}}, Budget: 400, CorpusCap: 5,
	}, sumExec, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.CorpusSize > 5 {
		t.Fatalf("corpus grew to %d entries, cap is 5", res.CorpusSize)
	}
}

func TestCountBucketMonotone(t *testing.T) {
	prev := int8(-1)
	for _, n := range []int64{-3, 0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 127, 128, 1 << 40} {
		b := countBucket(n)
		if b < prev {
			t.Fatalf("countBucket(%d) = %d dropped below previous bucket %d", n, b, prev)
		}
		prev = b
	}
	if countBucket(0) != 0 || countBucket(-1) != 0 {
		t.Fatal("non-positive counts must map to bucket 0")
	}
	if countBucket(1<<40) != numBuckets-1 {
		t.Fatal("huge counts must map to the top bucket")
	}
}

func TestDefaultMutateAtMoves(t *testing.T) {
	rng := xrand.New(17)
	v := []float64{0, 2}
	moved := false
	for i := 0; i < 20; i++ {
		before := append([]float64(nil), v...)
		defaultMutateAt(v, i%2, rng)
		if v[0] != before[0] || v[1] != before[1] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("default mutation never moved the candidate (zero coordinates included)")
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("mutation produced non-finite coordinate %v", v)
		}
	}
}

func TestMaskFreezesLoadBearingPosition(t *testing.T) {
	// Coordinate 0 controls a rare edge (fires only when v[0] is within a
	// narrow band); coordinate 1 is irrelevant. The mask built for the rare
	// edge must freeze position 0 and leave position 1 free.
	exec := func(in []float64) (float64, []int64, bool) {
		c := []int64{1, 0}
		if in[0] > 4.9 && in[0] < 5.1 {
			c[1] = 1
		}
		return in[1], c, true
	}
	res, err := Run(Options{
		Dim: 2, Clamp: clampUnit, Seeds: [][]float64{{5, 1}, {5, 2}}, Budget: 300,
	}, exec, xrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if res.MasksBuilt == 0 {
		t.Fatal("no masks were built")
	}
	if res.FrozenPositions == 0 {
		t.Fatal("the load-bearing narrow-band position was never frozen")
	}
}
