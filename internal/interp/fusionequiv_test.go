package interp_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// The benchmark-level half of the fast-path equivalence gate: for every
// program benchmark, the fused profiler must reproduce the reference
// engine's profiled run bit for bit — outputs, return value, dynamic
// count, trap/budget state, reconstructed InstrCounts — on the reference
// input, on random scaled inputs, and under budget cutoffs that abort the
// run mid-flight.

func checkProfileRun(t *testing.T, label string, want *interp.Result, r *interp.ProfileRun) {
	t.Helper()
	if r.Ret != want.Ret || r.DynCount != want.DynCount ||
		r.BudgetExceeded != want.BudgetExceeded || r.DetectedFlag != want.DetectedFlag {
		t.Fatalf("%s: result mismatch: ret %d/%d dyn %d/%d budget %v/%v detected %v/%v",
			label, r.Ret, want.Ret, r.DynCount, want.DynCount,
			r.BudgetExceeded, want.BudgetExceeded, r.DetectedFlag, want.DetectedFlag)
	}
	if (r.Trap == nil) != (want.Trap == nil) || (r.Trap != nil && *r.Trap != *want.Trap) {
		t.Fatalf("%s: trap mismatch: %v vs %v", label, r.Trap, want.Trap)
	}
	if !interp.OutputEqual(r.Output, want.Output) {
		t.Fatalf("%s: output mismatch (%d vs %d values)", label, len(r.Output), len(want.Output))
	}
	if got := r.InstrCounts(nil); !reflect.DeepEqual(got, want.InstrCounts) {
		for id := range got {
			if got[id] != want.InstrCounts[id] {
				t.Errorf("%s: instr %d count %d, want %d", label, id, got[id], want.InstrCounts[id])
			}
		}
		t.Fatalf("%s: reconstructed InstrCounts differ from the reference", label)
	}
}

func TestProfileEquivBenchmarks(t *testing.T) {
	rng := xrand.New(99)
	for _, name := range prog.Names() {
		b := prog.Build(name)
		fused := interp.NewProfiler(b.Prog)

		inputs := [][]uint64{b.Encode(b.RefInput())}
		for k := 0; k < 2; k++ {
			inputs = append(inputs, b.Encode(b.RandomInputScaled(rng, 0.3)))
		}
		for ii, in := range inputs {
			full := interp.Run(b.Prog, in, interp.Options{Profile: true, MaxDyn: b.MaxDyn})
			d := full.DynCount
			cutoffs := []int64{b.MaxDyn, d / 2, d - 1, d}
			if testing.Short() && ii > 0 {
				cutoffs = []int64{b.MaxDyn}
			}
			for _, cut := range cutoffs {
				if cut <= 0 {
					continue
				}
				label := fmt.Sprintf("%s/in%d/cut%d", name, ii, cut)
				want := interp.Run(b.Prog, in, interp.Options{Profile: true, MaxDyn: cut})
				checkProfileRun(t, label, want, fused.Run(in, cut))
			}
		}
	}
}
