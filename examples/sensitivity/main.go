// Sensitivity: derive a program's SDC sensitivity distribution — the
// stationary per-instruction vulnerability ranking PEPPA-X searches by —
// and show the FI-space pruning that makes it cheap (§4.2.2-4.2.3).
//
// Run: go run ./examples/sensitivity [benchmark]
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/sensitivity"
	"repro/internal/xrand"
)

func main() {
	name := "needle"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	bench := prog.Build(name)
	rng := xrand.New(7)

	// Step 1: a small FI input with reference-level coverage.
	small, err := core.FindSmallFIInput(bench, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("small FI input for %s: %v\n", name, small.Input)
	fmt.Printf("  coverage %.2f (reference %.2f), workload %d dyn instrs (reference %d)\n\n",
		small.Coverage, small.RefCoverage, small.Golden.DynCount, small.RefDynCount)

	// Step 2: static pruning.
	pr := analysis.Prune(bench.Module)
	fmt.Printf("pruning: %d FI sites -> %d representatives (%.1f%% pruned)\n\n",
		bench.Prog.NumInstrs(), pr.NumRepresentatives(), pr.Ratio(bench.Prog.NumInstrs())*100)

	// Step 3: reduced FI simulation for SDC scores.
	dist := sensitivity.Derive(bench.Prog, small.Golden, sensitivity.Options{
		TrialsPerRep: 30, UsePruning: true,
	}, rng)
	fmt.Printf("derived distribution with %d FI trials (%.1fM dyn instrs)\n\n",
		dist.FITrials, float64(dist.FIDynInstrs)/1e6)

	// The most SDC-prone instructions.
	type scored struct {
		id    int
		score float64
	}
	var list []scored
	for id, s := range dist.Scores {
		list = append(list, scored{id, s})
	}
	sort.Slice(list, func(a, b int) bool { return list[a].score > list[b].score })
	instrs := bench.Module.Instrs()
	fmt.Println("top 10 most SDC-sensitive static instructions:")
	for i := 0; i < 10 && i < len(list); i++ {
		in := instrs[list[i].id]
		fmt.Printf("  ID%-5d score %.2f  %-9s (block %s, fn %s)\n",
			list[i].id, list[i].score, in.Op, in.Block.Name, in.Block.Fn.Name)
	}
}
