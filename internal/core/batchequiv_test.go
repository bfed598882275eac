package core

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/prog"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// TestSearchBatchInvariance pins the pipeline's determinism contract: every
// FI campaign runs trial by trial on per-trial RNG streams, so the whole
// search result must be bit-identical at workers 1 and 4 crossed with an
// untraced and a traced run — telemetry observes the pipeline, it never
// steers it.
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
				for _, traced := range []bool{false, true} {
					cfg := fmt.Sprintf("workers=%d traced=%v", w, traced)
					opts.Workers = w
					opts.Trace = nil
					var rec *telemetry.Recorder
					if traced {
						rec = telemetry.New(telemetry.Options{Sink: io.Discard})
						opts.Trace = rec.Stream("search/" + name)
					}
					r, err := Search(b, opts, xrand.New(2026))
					if err != nil {
						t.Fatalf("%s: %v", cfg, err)
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("%s: closing the trace: %v", cfg, err)
					}
					normalizeResult(r)
					if want == nil {
						want = r
						continue
					}
					if !reflect.DeepEqual(r, want) {
						t.Errorf("%s diverged: best %v SDC %v vs %v SDC %v",
							cfg, r.BestInput, r.SDCBound(), want.BestInput, want.SDCBound())
					}
				}
			}
		})
	}
}
