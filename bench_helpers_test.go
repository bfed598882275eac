package repro

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/interp"
	"repro/internal/prog"
)

// runGolden executes a fault-free run and returns its dynamic count.
func runGolden(b *testing.B, bench *prog.Benchmark, in []uint64) int64 {
	b.Helper()
	r := interp.Run(bench.Prog, in, interp.Options{MaxDyn: bench.MaxDyn})
	if r.Trap != nil || r.BudgetExceeded {
		b.Fatalf("golden run failed: %v", r.Trap)
	}
	return r.DynCount
}

// runCampaign executes a single-worker statistical FI campaign.
func runCampaign(b *testing.B, bench *prog.Benchmark, in []uint64, trials int) {
	b.Helper()
	g, err := campaign.NewGolden(bench.Prog, in, bench.MaxDyn)
	if err != nil {
		b.Fatal(err)
	}
	campaign.OverallParallel(bench.Prog, g, trials, campaign.ParallelOptions{Workers: 1, Seed: 1})
}
