package campaign

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/prog"
)

// TestFaultModelDeterminismMatrix is the pluggable-fault-model determinism
// gate: for every registered model, the flat campaign tally must be
// bit-identical across the full execution matrix — workers {1, 4} ×
// batch size {1, 64} × merged trial ranges {1, 2, 4} — because each
// trial's plan and injection randomness derive from (Seed, global trial
// index) alone, regardless of which model samples the plan.
func TestFaultModelDeterminismMatrix(t *testing.T) {
	trials := 160
	if testing.Short() {
		trials = 48
	}
	for _, name := range []string{"pathfinder", "stencil"} {
		b := prog.Build(name)
		g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fault.Models() {
			m := m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				const seed = 29
				ref := OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: 1, Seed: seed, Model: m})
				if ref.Trials != trials {
					t.Fatalf("reference run completed %d/%d trials", ref.Trials, trials)
				}
				for _, ranges := range []int{1, 2, 4} {
					for _, workers := range []int{1, 4} {
						for _, batch := range []int{1, 64} {
							got := mergedRanges(b.Prog, g, trials, ranges, ParallelOptions{
								Workers: workers, Seed: seed, BatchSize: batch, Model: m,
							})
							if got != ref {
								t.Fatalf("ranges=%d workers=%d batch=%d: %+v, want %+v",
									ranges, workers, batch, got, ref)
							}
						}
					}
				}
			})
		}
	}
}

// TestDefaultModelMatchesHistoricalPath pins the Model interface to the
// pre-interface behaviour: a campaign with a nil Model (the historical
// hardcoded single-bit-flip path) and one passing fault.SingleFlip
// explicitly must produce byte-identical tallies at every worker count and
// batch size.
func TestDefaultModelMatchesHistoricalPath(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	b := prog.Build("particlefilter")
	g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 31
	legacy := OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: 1, Seed: seed})
	for _, cfg := range []struct{ workers, batch int }{{1, 1}, {4, 64}} {
		explicit := OverallParallel(b.Prog, g, trials, ParallelOptions{
			Workers: cfg.workers, Seed: seed, BatchSize: cfg.batch, Model: fault.SingleFlip,
		})
		if explicit != legacy {
			t.Fatalf("workers=%d batch=%d: explicit single-flip %+v != nil-model default %+v",
				cfg.workers, cfg.batch, explicit, legacy)
		}
	}
}
