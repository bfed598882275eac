package interp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/ir/irtest"
	"repro/internal/xrand"
)

// FuzzInjectorTrial checks the trial engine against the reference engine on
// random modules. For a fuzzed module seed, arguments, snapshot spacing,
// dynamic injection point, fault bit, fault model and dyn budget, a trial
// on the Injector — resumed from the golden's snapshots, and again from
// the program entry — must return the Result a fresh Run of the same plan
// returns, field by field. The low four bits of spacing set the snapshot
// interval; a non-zero high nibble k runs the module under stackedEntry
// with 8k words of padding.
func FuzzInjectorTrial(f *testing.F) {
	f.Add(uint64(2021), int64(3), int64(-7), 1.5, uint8(2), uint64(9), uint8(5), uint8(0), uint64(1), uint16(0))
	f.Add(uint64(7), int64(-40), int64(12), -3.25, uint8(0), uint64(1), uint8(63), uint8(1), uint64(2), uint16(0))
	f.Add(uint64(99), int64(0), int64(0), 0.0, uint8(5), uint64(1<<40), uint8(0), uint8(2), uint64(3), uint16(30))
	f.Add(uint64(314), int64(50), int64(1), 2.5, uint8(1), uint64(17), uint8(31), uint8(3), uint64(4), uint16(12))
	f.Fuzz(func(t *testing.T, modSeed uint64, a, b int64, x float64, spacing uint8, target uint64, bit, model uint8, rngSeed uint64, budget uint16) {
		mod := irtest.RandomModule(xrand.New(modSeed))
		if pad := int64(spacing >> 4); pad > 0 {
			stackedEntry(mod, 8*pad)
		}
		p := mustCompile(t, mod)
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

// stackedEntry makes a new entry function of m that calls m's random main
// twice, the second time above pad words of its own stack:
//
//	stacked(a, b, x) { r = main(a, b, x)
//	                   buf = alloca pad; store r, buf+pad-1
//	                   return main(b, a, x) ^ load(buf+pad-1) }
//
// Between the calls, main's popped buffer leaves written words above
// memTop, which the padding reclaims, and the second call's memTop sits
// pad words higher. The seed memtop-crosses-chunk (pad 32, a snapshot at
// every block entry) has snapshots at memTop 9, 1, 33 and 41, and r lives
// through the second call in word 32, the first word of the second chunk.
func stackedEntry(m *ir.Module, pad int64) {
	f := m.NewFunc("stacked", ir.I64, &ir.Param{Name: "a", Ty: ir.I64}, &ir.Param{Name: "b", Ty: ir.I64}, &ir.Param{Name: "x", Ty: ir.F64})
	b := ir.NewBuilder(f)
	r := b.Call(ir.I64, "main", b.Param(0), b.Param(1), b.Param(2))
	next := b.Block("next")
	b.Br(next)
	b.SetBlock(next)
	slot := b.GEP(b.AllocaN(pad), ir.I64c(pad-1))
	b.Store(r, slot)
	r2 := b.Call(ir.I64, "main", b.Param(1), b.Param(0), b.Param(2))
	b.Ret(b.Xor(r2, b.Load(ir.I64, slot)))
	m.EntryName = f.Name
}

// FuzzProfilerRun checks the fast loop's profiled runs against the
// reference engine on random modules. For a fuzzed module seed, arguments
// and dyn budget, a Profiler run must match a profiled Run field by field
// (equivHarness.check): return value, output, dyn count, trap, budget and
// detection flags, coverage, fitness and the reconstructed per-instruction
// counts. The module runs twice: as generated, and under loopedEntry,
// whose loop adds call completions and two-move phi lists to the slots
// the budget can end a run in. budget 0 runs to the end; a small one ends
// the run inside whichever slot crosses it, either half of a fused pair
// and a phi-move list included. The committed seeds cut module 1 in the
// second half of a fused arith-arith pair (cut-in-fused-pair), after the
// first of the two moves on the loop's back edge, which a fused
// compare-and-branch takes (cut-in-move-list), and at the completion of
// the first call to main (cut-at-call-completion).
func FuzzProfilerRun(f *testing.F) {
	f.Add(uint64(2021), int64(3), int64(-7), 1.5, uint16(0))
	f.Add(uint64(7), int64(-40), int64(12), -3.25, uint16(9))
	f.Add(uint64(99), int64(0), int64(0), 0.0, uint16(1))
	f.Add(uint64(314), int64(50), int64(1), 2.5, uint16(25))
	f.Fuzz(func(t *testing.T, modSeed uint64, a, b int64, x float64, budget uint16) {
		args := []uint64{uint64(a), uint64(b), math.Float64bits(x)}
		for _, looped := range []bool{false, true} {
			mod := irtest.RandomModule(xrand.New(modSeed))
			if looped {
				loopedEntry(mod)
			}
			h := newEquivHarness(mustCompile(t, mod), xrand.New(modSeed))
			h.check(t, fmt.Sprintf("looped=%v", looped), args, int64(budget))
		}
	})
}

// loopedEntry makes a new entry function of m that calls m's random main
// in a three-trip loop whose two phis move together on each edge into the
// loop header:
//
//	looped(a, b, x) { acc = 0
//	                  for i = 0; i < 3; i++ { acc ^= main(a+i, b, x) }
//	                  return acc }
func loopedEntry(m *ir.Module) {
	f := m.NewFunc("looped", ir.I64, &ir.Param{Name: "a", Ty: ir.I64}, &ir.Param{Name: "b", Ty: ir.I64}, &ir.Param{Name: "x", Ty: ir.F64})
	b := ir.NewBuilder(f)
	entry := b.Cur
	loop := b.Block("loop")
	done := b.Block("done")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	r := b.Call(ir.I64, "main", b.Add(b.Param(0), i), b.Param(1), b.Param(2))
	acc2 := b.Xor(acc, r)
	i2 := b.Add(i, ir.I64c(1))
	b.CondBr(b.ICmp(ir.OpICmpSLT, i2, ir.I64c(3)), loop, done)
	ir.AddIncoming(i, ir.I64c(0), entry)
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(acc, ir.I64c(0), entry)
	ir.AddIncoming(acc, acc2, loop)
	b.SetBlock(done)
	b.Ret(acc2)
	m.EntryName = f.Name
}
