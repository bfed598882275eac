package interp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/ir/irtest"
	"repro/internal/xrand"
)

// The fast-path equivalence gate (`make test-fusion`): every observable of
// a fused profiled run must be bit-identical to the reference engine, a
// profiled interp.Run over the unfused arrays, at every possible abort
// point. The harness runs both on the same (program, args, budget) triple
// and compares return value, output, dynamic count, trap, budget flag,
// detected flag, coverage and the reconstructed per-instruction count
// vector; fitness must match the per-instruction ground truth to tolerance
// (the summation order differs, so exact float equality is not required).

type equivHarness struct {
	p      *Program
	fused  *Profiler
	scores []float64
	cs     []float64
}

func newEquivHarness(p *Program, rng *xrand.RNG) *equivHarness {
	scores := make([]float64, p.NumInstrs())
	for i := range scores {
		scores[i] = rng.Float64()
	}
	return &equivHarness{
		p:      p,
		fused:  NewProfiler(p),
		scores: scores,
		cs:     p.CounterScores(scores),
	}
}

// check runs the reference engine as ground truth and the fused profiler
// against it, returning the reference result (for deriving budget
// cutoffs).
func (h *equivHarness) check(t *testing.T, label string, args []uint64, maxDyn int64) *Result {
	t.Helper()
	want := Run(h.p, args, Options{Profile: true, MaxDyn: maxDyn})
	r := h.fused.Run(args, maxDyn)
	if r.Ret != want.Ret || r.DynCount != want.DynCount ||
		r.BudgetExceeded != want.BudgetExceeded || r.DetectedFlag != want.DetectedFlag {
		t.Fatalf("%s: result mismatch: ret %d/%d dyn %d/%d budget %v/%v detected %v/%v",
			label, r.Ret, want.Ret, r.DynCount, want.DynCount,
			r.BudgetExceeded, want.BudgetExceeded, r.DetectedFlag, want.DetectedFlag)
	}
	if (r.Trap == nil) != (want.Trap == nil) || (r.Trap != nil && *r.Trap != *want.Trap) {
		t.Fatalf("%s: trap mismatch: %v vs %v", label, r.Trap, want.Trap)
	}
	if !OutputEqual(r.Output, want.Output) {
		t.Fatalf("%s: output mismatch: %v vs %v", label, r.Output, want.Output)
	}
	got := r.InstrCounts(nil)
	if !reflect.DeepEqual(got, want.InstrCounts) {
		for id := range got {
			if got[id] != want.InstrCounts[id] {
				t.Errorf("%s: instr %d count %d, want %d", label, id, got[id], want.InstrCounts[id])
			}
		}
		t.Fatalf("%s: reconstructed InstrCounts differ from the reference", label)
	}
	if cov, wantCov := r.Coverage(), want.Coverage(h.p.NumInstrs()); cov != wantCov {
		t.Fatalf("%s: coverage %v, want %v", label, cov, wantCov)
	}
	fit := r.Fitness(h.cs)
	if want.Trap != nil || want.BudgetExceeded || want.DynCount == 0 || want.DetectedFlag {
		if fit != 0 {
			t.Fatalf("%s: failed run fitness %v, want 0", label, fit)
		}
		return want
	}
	var acc float64
	for id, c := range want.InstrCounts {
		acc += h.scores[id] * float64(c)
	}
	refFit := acc / float64(want.DynCount)
	if diff := math.Abs(fit - refFit); diff > 1e-9*math.Max(1, math.Abs(refFit)) {
		t.Fatalf("%s: fitness %v too far from per-instruction ground truth %v", label, fit, refFit)
	}
	return want
}

// countFusedOps tallies superinstruction slots across a program's fused
// code arrays.
func countFusedOps(p *Program) map[ir.Op]int {
	c := make(map[ir.Op]int)
	for _, cf := range p.funcs {
		for i := range cf.fused {
			switch op := cf.fused[i].op; op {
			case opFusedCmpBr, opFusedLoadArith, opFusedArithLoad, opFusedArithStore, opFusedArithArith:
				c[op]++
			}
		}
	}
	return c
}

// buildFusedLoadTrap: alloca; gep(arr, i) [fuses with the store]; store;
// load [fuses with the add] — the load is the FIRST sub-op of an
// opFusedLoadArith pair and traps when i is out of bounds (or reaches the
// null word at i = -1).
func buildFusedLoadTrap(t testing.TB) *Program {
	m := ir.NewModule("fusedload")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "i", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.AllocaN(4)
	addr := b.GEP(arr, b.Param(0))
	b.Store(ir.I64c(7), arr)
	v := b.Load(ir.I64, addr)
	b.Ret(b.Add(v, ir.I64c(1)))
	return mustCompile(t, m)
}

// buildFusedArithLoadTrap: gep+load fuse into opFusedArithLoad; the load is
// the SECOND sub-op and traps on a bad index.
func buildFusedArithLoadTrap(t testing.TB) *Program {
	m := ir.NewModule("fusedgepload")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "i", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.AllocaN(4)
	b.Ret(b.Load(ir.I64, b.GEP(arr, b.Param(0))))
	return mustCompile(t, m)
}

// buildFusedStoreTrap: gep+store fuse into opFusedArithStore; the store
// traps on a bad index.
func buildFusedStoreTrap(t testing.TB) *Program {
	m := ir.NewModule("fusedgepstore")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "i", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.AllocaN(4)
	b.Store(ir.I64c(5), b.GEP(arr, b.Param(0)))
	b.Ret(b.Load(ir.I64, arr))
	return mustCompile(t, m)
}

// buildDivTrap: a fused arith pair feeding an (unfusable) sdiv.
func buildDivTrap(t testing.TB) *Program {
	m := ir.NewModule("fuseddiv")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64}, &ir.Param{Name: "b", Ty: ir.I64})
	b := ir.NewBuilder(f)
	num := b.Add(b.Param(0), ir.I64c(0))
	den := b.Sub(b.Param(1), ir.I64c(0))
	b.Ret(b.SDiv(num, den))
	return mustCompile(t, m)
}

// buildDetect: exercises the sdc_detect intrinsic and void calls.
func buildDetect(t testing.TB) *Program {
	m := ir.NewModule("detect")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64})
	b := ir.NewBuilder(f)
	v := b.Mul(b.Param(0), ir.I64c(3))
	b.Call(ir.Void, "sdc_detect")
	b.Call(ir.Void, "print_i64", v)
	b.Ret(v)
	return mustCompile(t, m)
}

// buildBadAlloc: the alloca trap path.
func buildBadAlloc(t testing.TB) *Program {
	m := ir.NewModule("fusedbadalloc")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.Alloca(b.Param(0))
	b.Ret(b.Load(ir.I64, arr))
	return mustCompile(t, m)
}

// TestFusionProducesSuperinstructions asserts the fusion pass actually
// fires — every fused opcode appears somewhere in the white-box suite, and
// fused arrays are shorter than their unfused sources.
func TestFusionProducesSuperinstructions(t *testing.T) {
	progs := map[string]*Program{
		"sumloop":   buildSumLoop(t),
		"memory":    buildMemory(t),
		"fusedload": buildFusedLoadTrap(t),
		"gepload":   buildFusedArithLoadTrap(t),
		"gepstore":  buildFusedStoreTrap(t),
	}
	total := make(map[ir.Op]int)
	for name, p := range progs {
		counts := countFusedOps(p)
		if len(counts) == 0 {
			t.Errorf("%s: no superinstructions formed", name)
		}
		shorter := false
		for _, cf := range p.funcs {
			if len(cf.fused) < len(cf.code) {
				shorter = true
			}
			if len(cf.fusedOf) != len(cf.fused) || len(cf.fusedStart) != int(cf.numBlocks) {
				t.Fatalf("%s/%s: fused table sizes inconsistent", name, cf.name)
			}
		}
		if !shorter {
			t.Errorf("%s: fused array not shorter than unfused", name)
		}
		for op, n := range counts {
			total[op] += n
		}
	}
	for _, op := range []ir.Op{opFusedCmpBr, opFusedLoadArith, opFusedArithLoad, opFusedArithStore, opFusedArithArith} {
		if total[op] == 0 {
			t.Errorf("fused opcode %#x never formed across the suite", uint8(op))
		}
	}
}

// TestBlockProfileEquivWhiteBox sweeps every dynamic budget cutoff of the
// white-box programs (loops with multi-move phi edges, memory traffic,
// recursion), hitting each possible abort boundary: mid-block, mid-move,
// mid-fused-pair, at call return, and at the very first instruction.
func TestBlockProfileEquivWhiteBox(t *testing.T) {
	rng := xrand.New(42)
	for name, tc := range ckptProgs(t) {
		h := newEquivHarness(tc.p, rng)
		full := h.check(t, name+"/full", tc.args, 0)
		if full.Trap != nil || full.BudgetExceeded {
			t.Fatalf("%s: unexpected failure on full run: %+v", name, full)
		}
		d := full.DynCount
		step := int64(1)
		if testing.Short() && d > 300 {
			step = 7
		}
		for cut := int64(1); cut <= d+1; cut += step {
			h.check(t, fmt.Sprintf("%s/cut%d", name, cut), tc.args, cut)
		}
	}
}

// TestFusionTrapEquiv drives traps through fused pairs (first and second
// sub-op), division, allocation, recursion depth and the detect intrinsic,
// checking the fused profiler agrees with the reference on every
// observable.
func TestFusionTrapEquiv(t *testing.T) {
	rng := xrand.New(7)
	minInt64 := uint64(1) << 63
	cases := []struct {
		name string
		p    *Program
		args []uint64
		want TrapKind
	}{
		{"load-first-ok", buildFusedLoadTrap(t), []uint64{2}, TrapNone},
		{"load-first-oob", buildFusedLoadTrap(t), []uint64{1 << 40}, TrapOOB},
		{"load-first-null", buildFusedLoadTrap(t), []uint64{u64(-1)}, TrapNull},
		{"load-second-ok", buildFusedArithLoadTrap(t), []uint64{3}, TrapNone},
		{"load-second-oob", buildFusedArithLoadTrap(t), []uint64{1 << 40}, TrapOOB},
		{"load-second-null", buildFusedArithLoadTrap(t), []uint64{u64(-1)}, TrapNull},
		{"store-ok", buildFusedStoreTrap(t), []uint64{1}, TrapNone},
		{"store-oob", buildFusedStoreTrap(t), []uint64{1 << 40}, TrapOOB},
		{"store-null", buildFusedStoreTrap(t), []uint64{u64(-1)}, TrapNull},
		{"div-ok", buildDivTrap(t), []uint64{10, u64(-3)}, TrapNone},
		{"div-zero", buildDivTrap(t), []uint64{10, 0}, TrapDivZero},
		{"div-overflow", buildDivTrap(t), []uint64{minInt64, u64(-1)}, TrapDivOverflow},
		{"bad-alloc", buildBadAlloc(t), []uint64{u64(-5)}, TrapBadAlloc},
		{"stack-overflow", buildFactorial(t), []uint64{1 << 20}, TrapStackOverflow},
		{"detect", buildDetect(t), []uint64{9}, TrapNone},
	}
	for _, tc := range cases {
		h := newEquivHarness(tc.p, rng)
		want := h.check(t, tc.name, tc.args, 0)
		got := TrapNone
		if want.Trap != nil {
			got = want.Trap.Kind
		}
		if got != tc.want {
			t.Errorf("%s: trap %v, want %v", tc.name, got, tc.want)
		}
		// Sweep cutoffs around the failure point too: aborting before the
		// trap must be a plain budget abort on both engines.
		for _, cut := range []int64{1, want.DynCount / 2, want.DynCount, want.DynCount + 1} {
			if cut > 0 {
				h.check(t, fmt.Sprintf("%s/cut%d", tc.name, cut), tc.args, cut)
			}
		}
	}
	p := buildDetect(t)
	r := NewProfiler(p).Run([]uint64{4}, 0)
	if !r.DetectedFlag {
		t.Error("fast path lost the sdc_detect flag")
	}
}

// TestBlockProfileEquivRandomModules is the property test over random IR
// modules: block-derived InstrCounts must equal the reference engine's
// per-instruction vector for arbitrary well-typed programs, at full runs and at budget
// cutoffs (including cut = dyn, the no-abort boundary).
func TestBlockProfileEquivRandomModules(t *testing.T) {
	rng := xrand.New(0x5eed)
	n := 150
	if testing.Short() {
		n = 30
	}
	for i := 0; i < n; i++ {
		m := irtest.RandomModule(rng)
		p, err := Compile(m)
		if err != nil {
			t.Fatalf("mod%d: compile: %v", i, err)
		}
		h := newEquivHarness(p, rng)
		for trial := 0; trial < 3; trial++ {
			args := []uint64{
				uint64(rng.IntRange(-50, 50)),
				uint64(rng.IntRange(-50, 50)),
				math.Float64bits(rng.Range(-5, 5)),
			}
			label := fmt.Sprintf("mod%d/trial%d", i, trial)
			full := h.check(t, label, args, 0)
			d := full.DynCount
			for _, cut := range []int64{1, d / 2, d - 1, d} {
				if cut > 0 {
					h.check(t, fmt.Sprintf("%s/cut%d", label, cut), args, cut)
				}
			}
		}
	}
}

// TestProfileEquivReuse checks that one Profiler's reused machine state
// (memory is not cleared between runs) cannot leak across runs: fresh
// results stay identical to the reference engine across differing inputs
// and after aborted runs.
func TestProfileEquivReuse(t *testing.T) {
	p := buildMemory(t)
	pr := NewProfiler(p)
	for i := 0; i < 12; i++ {
		n := uint64(3 + 11*i%40)
		want := Run(p, []uint64{n}, Options{Profile: true})
		r := pr.Run([]uint64{n}, 0)
		if r.Ret != want.Ret || r.DynCount != want.DynCount {
			t.Fatalf("reuse run %d: ret %d/%d dyn %d/%d", i, r.Ret, want.Ret, r.DynCount, want.DynCount)
		}
		if !reflect.DeepEqual(r.InstrCounts(nil), want.InstrCounts) {
			t.Fatalf("reuse run %d: counts diverged", i)
		}
		// Interleave an aborted run: the next clean run must be unaffected.
		if ab := pr.Run([]uint64{n}, 17); !ab.BudgetExceeded {
			t.Fatalf("reuse run %d: cutoff 17 did not exhaust budget", i)
		}
	}
}
