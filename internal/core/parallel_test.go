package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/prog"
	"repro/internal/xrand"
)

// workerCounts are the configurations every equivalence test compares:
// serial, a small fixed pool, and whatever the host machine defaults to.
func workerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// normalizeResult zeroes the wall-clock fields, which legitimately vary
// between runs; everything else must be bit-identical across worker counts.
func normalizeResult(r *Result) {
	r.Cost.SmallInputTime = 0
	r.Cost.SensitivityTime = 0
	r.Cost.SearchTime = 0
	r.Cost.FinalFITime = 0
	if r.SmallInput != nil {
		r.SmallInput.Elapsed = 0
	}
}

// TestSearchWorkerEquivalence: a ten-generation pathfinder search must
// produce bit-identical results — best input and fitness, fitness/cost
// histories, evaluation counts and the closing FI campaign — at every
// worker count. TestSearchProfileEquiv runs a short search on each kernel.
func TestSearchWorkerEquivalence(t *testing.T) {
	opts := DefaultOptions()
	opts.Generations = 10
	opts.PopSize = 8
	opts.TrialsPerRep = 5
	opts.FinalTrials = 100
	opts.Checkpoints = []int{5, 10}
	searchWorkerEquiv(t, prog.Build("pathfinder"), opts, 77, workerCounts())
}

// searchWorkerEquiv runs the search on b from the same seed at each worker
// count and requires every result to equal the first.
func searchWorkerEquiv(t *testing.T, b *prog.Benchmark, opts Options, seed uint64, workers []int) {
	t.Helper()
	var want *Result
	for _, w := range workers {
		opts.Workers = w
		r, err := Search(b, opts, xrand.New(seed))
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		normalizeResult(r)
		if want == nil {
			want = r
			continue
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("Workers=%d diverged from Workers=%d:\n got best %v fitness %v SDC %v evals %d\nwant best %v fitness %v SDC %v evals %d",
				w, workers[0], r.BestInput, r.BestFitness, r.SDCBound(), r.Evaluations,
				want.BestInput, want.BestFitness, want.SDCBound(), want.Evaluations)
		}
	}
}

func TestBaselineWorkerEquivalence(t *testing.T) {
	b := prog.Build("needle")
	var want *BaselineResult
	for _, w := range workerCounts() {
		r := RandomSearch(b, BaselineOptions{
			TrialsPerInput: 120,
			MaxInputs:      6,
			FIOptions:      FIOptions{Workers: w},
		}, xrand.New(41))
		r.Elapsed = time.Duration(0)
		if want == nil {
			want = r
			continue
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("Workers=%d diverged from Workers=1: got best SDC %v (%d inputs), want %v (%d inputs)",
				w, r.Best.P, r.Inputs, want.Best.P, want.Inputs)
		}
	}
}
