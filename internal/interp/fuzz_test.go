package interp

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir/irtest"
	"repro/internal/xrand"
)

// FuzzInjectorTrial checks the trial engine against the reference engine on
// random modules. For a fuzzed module seed, arguments, snapshot spacing,
// dynamic injection point, fault bit, fault model and dyn budget, a trial
// on the Injector — resumed from the golden's snapshots, and again from
// the program entry — must return the Result a fresh Run of the same plan
// returns, field by field.
func FuzzInjectorTrial(f *testing.F) {
	f.Add(uint64(2021), int64(3), int64(-7), 1.5, uint8(2), uint64(9), uint8(5), uint8(0), uint64(1), uint16(0))
	f.Add(uint64(7), int64(-40), int64(12), -3.25, uint8(0), uint64(1), uint8(63), uint8(1), uint64(2), uint16(0))
	f.Add(uint64(99), int64(0), int64(0), 0.0, uint8(5), uint64(1<<40), uint8(0), uint8(2), uint64(3), uint16(30))
	f.Add(uint64(314), int64(50), int64(1), 2.5, uint8(1), uint64(17), uint8(31), uint8(3), uint64(4), uint16(12))
	f.Fuzz(func(t *testing.T, modSeed uint64, a, b int64, x float64, spacing uint8, target uint64, bit, model uint8, rngSeed uint64, budget uint16) {
		p := mustCompile(t, irtest.RandomModule(xrand.New(modSeed)))
		args := []uint64{uint64(a), uint64(b), math.Float64bits(x)}
		golden := Run(p, args, Options{MaxDyn: 100000})
		if golden.Trap != nil || golden.BudgetExceeded || golden.DynCount == 0 {
			return // not a valid golden run
		}
		c := Run(p, args, Options{Profile: true, CheckpointInterval: 1 + int64(spacing%16)}).Checkpoints

		models := fault.Models()
		plan := models[int(model)%len(models)].Sample(xrand.New(rngSeed), golden.DynCount)
		plan.TargetDyn = 1 + int64(target%uint64(golden.DynCount+1)) // past the end: never injected
		maxDyn := golden.DynCount*3 + 10000
		if budget > 0 {
			maxDyn = int64(budget)
		}
		ref := func() *Result {
			return Run(p, args, Options{Plan: &plan, FaultRNG: xrand.New(rngSeed), MaxDyn: maxDyn})
		}
		want := ref()
		if plan.Model == nil && !plan.SecondBitPending() && want.Injected {
			// A single flip: pin the fuzzed bit within the target's width.
			plan.Bit = bit % uint8(p.InstrType(want.InjectedID).Bits())
			want = ref()
		}
		m := NewInjector(p)
		for _, start := range []*Checkpoints{c, nil} {
			got := m.Trial(args, start, &plan, xrand.New(rngSeed), maxDyn)
			sameResult(t, plan.String(), want, got)
		}
	})
}
