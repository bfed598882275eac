package core

import (
	"testing"

	"repro/internal/prog"
)

// TestSearchProfileEquiv is the pipeline-level half of the fast-path
// equivalence gate: on every kernel, the full PEPPA-X search — which
// profiles each candidate on the fused profiler — must produce
// bit-identical results (best input and fitness, fitness/cost histories,
// evaluation counts and the closing FI campaign) for serial and parallel
// candidate evaluation. The profiler-level half, fused profiler against
// the reference engine, is internal/interp's fusion gate.
func TestSearchProfileEquiv(t *testing.T) {
	names := prog.Names()
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Generations = 3
			opts.PopSize = 4
			opts.TrialsPerRep = 4
			opts.FinalTrials = 30
			opts.Checkpoints = []int{2}
			searchWorkerEquiv(t, prog.Build(name), opts, 2026, []int{1, 4})
		})
	}
}
