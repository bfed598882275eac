package repro

// Parallel-execution benches: each pair runs the same deterministic workload
// at Workers=1 and Workers=4 so `benchstat` (or eyeballing ns/op) shows the
// speedup of the worker-pool layer. The FI-heavy targets (baseline, suite)
// parallelize near-linearly on a multi-core runner; the full search is
// partially serial (breeding, checkpoints, the closing campaign), so its
// speedup is smaller. On a single-core runner (GOMAXPROCS=1) the pairs
// instead demonstrate that the pool adds no overhead and — because results
// are worker-count-invariant — compute the same outputs either way.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// benchSearch runs a reduced PEPPA-X search at the given worker count.
func benchSearch(b *testing.B, workers int) {
	bench := prog.Build("pathfinder")
	opts := core.DefaultOptions()
	opts.Generations = 30
	opts.PopSize = 16
	opts.TrialsPerRep = 8
	opts.FinalTrials = 200
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Search(bench, opts, xrand.New(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch_Workers1(b *testing.B) { benchSearch(b, 1) }
func BenchmarkSearch_Workers4(b *testing.B) { benchSearch(b, 4) }

// benchBaseline runs the random+FI baseline — the workload the paper calls
// trivially parallel (§5.2): per-candidate 1000-trial campaigns fan out.
func benchBaseline(b *testing.B, workers int) {
	bench := prog.Build("hpccg")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RandomSearch(bench, core.BaselineOptions{
			TrialsPerInput: 1000,
			MaxInputs:      4,
			FIOptions:      core.FIOptions{Workers: workers},
		}, xrand.New(7))
	}
}

func BenchmarkBaseline_Workers1(b *testing.B) { benchBaseline(b, 1) }
func BenchmarkBaseline_Workers4(b *testing.B) { benchBaseline(b, 4) }

// benchSuite regenerates the §3 study plus the Figure 5/7/8 artifacts — the
// concurrent experiment runner over the memoizing suite.
func benchSuiteWorkers(bb *testing.B, workers int) {
	for i := 0; i < bb.N; i++ {
		cfg := experiments.QuickConfig()
		cfg.Benches = []string{"pathfinder"}
		cfg.Workers = workers
		s, err := experiments.NewSuite(cfg)
		if err != nil {
			bb.Fatal(err)
		}
		if _, err := experiments.RunAllStructured(s, []string{"fig1", "table2", "fig5", "fig7", "fig8"}); err != nil {
			bb.Fatal(err)
		}
	}
}

func BenchmarkSuite_Workers1(b *testing.B) { benchSuiteWorkers(b, 1) }
func BenchmarkSuite_Workers4(b *testing.B) { benchSuiteWorkers(b, 4) }
