package core

import (
	"reflect"
	"testing"

	"repro/internal/prog"
	"repro/internal/xrand"
)

// TestSearchBatchInvariance pins the pipeline's determinism contract:
// every FI campaign classifies on per-trial RNG streams, so the whole
// search result must be bit-identical for every batch size — including 0,
// the unbatched default — and worker count.
func TestSearchBatchInvariance(t *testing.T) {
	names := []string{"pathfinder", "fft"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			opts := DefaultOptions()
			opts.Generations = 3
			opts.PopSize = 4
			opts.TrialsPerRep = 4
			opts.FinalTrials = 60
			opts.Checkpoints = []int{2}

			var want *Result
			for _, w := range []int{1, 4} {
				for _, batch := range []int{0, 1, 8, 64} {
					opts.Workers = w
					opts.BatchSize = batch
					r, err := Search(b, opts, xrand.New(2026))
					if err != nil {
						t.Fatalf("workers=%d batch=%d: %v", w, batch, err)
					}
					normalizeResult(r)
					if want == nil {
						want = r
						continue
					}
					if !reflect.DeepEqual(r, want) {
						t.Errorf("workers=%d batch=%d diverged: best %v SDC %v vs %v SDC %v",
							w, batch, r.BestInput, r.SDCBound(), want.BestInput, want.SDCBound())
					}
				}
			}
		})
	}
}

// TestRandomSearchBatchInvariance does the same for the baseline: the
// per-candidate campaigns already run on per-trial streams, so batching
// must leave the entire search history untouched.
func TestRandomSearchBatchInvariance(t *testing.T) {
	b := prog.Build("pathfinder")
	var want *BaselineResult
	for _, batch := range []int{0, 1, 8, 64} {
		r := RandomSearch(b, BaselineOptions{
			TrialsPerInput: 40,
			MaxInputs:      3,
			FIOptions:      FIOptions{Workers: 2, BatchSize: batch},
		}, xrand.New(9))
		r.Elapsed = 0
		if want == nil {
			want = r
			continue
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("batch=%d diverged: best SDC %v vs %v", batch, r.BestSDC, want.BestSDC)
		}
	}
}
