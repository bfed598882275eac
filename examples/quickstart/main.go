// Quickstart: find an SDC-bound input for a benchmark in a few seconds.
//
// This walks the whole PEPPA-X pipeline on Pathfinder with a small budget:
// fuzz a small FI input, derive the SDC sensitivity distribution with
// pruned fault injections, genetically search the input space with the
// cheap dynamic fitness, and FI-validate the reported input — then compare
// against the benchmark's default reference input.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/xrand"
)

func main() {
	bench := prog.Build("pathfinder")
	rng := xrand.New(2021)

	opts := core.DefaultOptions()
	opts.Generations = 60
	opts.FinalTrials = 500

	res, err := core.Search(bench, opts, rng)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark:       %s — %s\n", bench.Name, bench.Description)
	fmt.Printf("SDC-bound input: %v\n", res.BestInput)
	f := res.Final
	fmt.Printf("SDC probability: %.1f%% (95%% CI [%.1f%%, %.1f%%], %d FI trials)\n\n",
		f.P*100, f.Lo*100, f.Hi*100, f.Trials)

	// How over-optimistic would an evaluation with the suite's default
	// reference input have been?
	ref, err := campaign.NewGolden(bench.Prog, bench.Encode(bench.RefInput()), bench.MaxDyn)
	if err != nil {
		log.Fatal(err)
	}
	refEst := campaign.OverallParallel(bench.Prog, ref, opts.FinalTrials, campaign.ParallelOptions{
		Workers: opts.Workers, Seed: rng.Uint64(),
	}).Estimate()
	fmt.Printf("reference input: %v\n", bench.RefInput())
	fmt.Printf("SDC probability: %.1f%%\n\n", refEst.P*100)

	gap := f.P - refEst.P
	fmt.Printf("evaluating with the reference input underestimates the SDC bound by %.1f points;\n", gap*100)
	fmt.Printf("a reliability target set from it would be violated by inputs like %v.\n", res.BestInput)
}
