package campaign

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/xrand"
)

// buildAccumulator builds a program whose output is highly fault-sensitive:
// main(n) { s=0; for i<n { s += i }; print(s) } — most flips in s or i
// surface in the printed sum.
func buildAccumulator(t testing.TB) *interp.Program {
	m := ir.NewModule("acc")
	f := m.NewFunc("main", ir.Void, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	entry := b.Cur
	loop := b.Block("loop")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, i, b.Param(0)), body, exit)
	b.SetBlock(body)
	s2 := b.Add(s, i)
	i2 := b.Add(i, ir.I64c(1))
	b.Br(loop)
	ir.AddIncoming(i, ir.I64c(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.I64c(0), entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	b.Call(ir.Void, "print_i64", s)
	b.Ret(nil)
	p, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildMasked builds a program whose output is almost fault-immune: the
// output is the sign of a large accumulated value, so most flips mask.
func buildMasked(t testing.TB) *interp.Program {
	m := ir.NewModule("masked")
	f := m.NewFunc("main", ir.Void, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	entry := b.Cur
	loop := b.Block("loop")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, i, b.Param(0)), body, exit)
	b.SetBlock(body)
	s2 := b.Add(s, ir.I64c(1))
	i2 := b.Add(i, ir.I64c(1))
	b.Br(loop)
	ir.AddIncoming(i, ir.I64c(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.I64c(1), entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	// Output only whether s > 0 — flips rarely change the sign.
	pos := b.ICmp(ir.OpICmpSGT, s, ir.I64c(0))
	b.Call(ir.Void, "print_i64", b.ZExt(pos, ir.I64))
	b.Ret(nil)
	p, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewGolden(t *testing.T) {
	p := buildAccumulator(t)
	g, err := NewGolden(p, []uint64{100}, 0)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	if g.DynCount == 0 || len(g.Output) != 1 {
		t.Fatalf("golden: dyn=%d out=%v", g.DynCount, g.Output)
	}
	if g.Output[0].Int() != 4950 {
		t.Fatalf("golden output = %d", g.Output[0].Int())
	}
	if cov := g.Coverage(); cov != 1.0 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestNewGoldenRejectsTrappingInput(t *testing.T) {
	m := ir.NewModule("trapper")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "d", Ty: ir.I64})
	b := ir.NewBuilder(f)
	b.Ret(b.SDiv(ir.I64c(100), b.Param(0)))
	p, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGolden(p, []uint64{0}, 0); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput, got %v", err)
	}
	if _, err := NewGolden(p, []uint64{5}, 0); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

func TestNewGoldenRejectsOverBudget(t *testing.T) {
	p := buildAccumulator(t)
	if _, err := NewGolden(p, []uint64{1 << 40}, 1000); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput for over-budget, got %v", err)
	}
}

func TestOverallSDCSeparatesPrograms(t *testing.T) {
	acc := buildAccumulator(t)
	masked := buildMasked(t)
	gAcc, err := NewGolden(acc, []uint64{200}, 0)
	if err != nil {
		t.Fatal(err)
	}
	gMasked, err := NewGolden(masked, []uint64{200}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cAcc := OverallParallel(acc, gAcc, 400, ParallelOptions{Seed: 11})
	cMasked := OverallParallel(masked, gMasked, 400, ParallelOptions{Seed: 11})
	if cAcc.Trials != 400 || cMasked.Trials != 400 {
		t.Fatal("trial counts wrong")
	}
	pAcc, pMasked := cAcc.SDCProbability(), cMasked.SDCProbability()
	if pAcc <= pMasked {
		t.Fatalf("accumulator SDC %v should exceed masked %v", pAcc, pMasked)
	}
	if pAcc < 0.2 {
		t.Fatalf("accumulator SDC %v unexpectedly low", pAcc)
	}
	if pMasked > 0.15 {
		t.Fatalf("masked SDC %v unexpectedly high", pMasked)
	}
}

func TestCountsBookkeeping(t *testing.T) {
	var c Counts
	for _, o := range []Outcome{SDC, SDC, Crash, Hang, Benign, Detected} {
		c.Add(o)
	}
	if c.Trials != 6 || c.SDC != 2 || c.Crash != 1 || c.Hang != 1 || c.Benign != 1 || c.Detected != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if got := c.SDCProbability(); got != 2.0/6.0 {
		t.Fatalf("sdc prob = %v", got)
	}
	if Counts.SDCProbability(Counts{}) != 0 {
		t.Fatal("empty counts should give 0")
	}
	if lo, hi := c.SDCInterval(); hi-lo <= 0 {
		t.Fatal("CI should be positive")
	}
}

func TestClassifyDeterministicWithSeed(t *testing.T) {
	p := buildAccumulator(t)
	g, _ := NewGolden(p, []uint64{150}, 0)
	a := OverallParallel(p, g, 200, ParallelOptions{Seed: 42})
	b := OverallParallel(p, g, 200, ParallelOptions{Seed: 42})
	if a != b {
		t.Fatalf("campaign not reproducible: %+v vs %+v", a, b)
	}
}

func TestClassifyDetected(t *testing.T) {
	p := buildAccumulator(t)
	g, _ := NewGolden(p, []uint64{100}, 0)
	all := func(int) bool { return true }
	c := OverallParallel(p, g, 100, ParallelOptions{Seed: 3, Detector: all})
	if c.Detected != 100 {
		t.Fatalf("full protection should detect every activated fault: %+v", c)
	}
	if c.SDC != 0 || c.Crash != 0 {
		t.Fatalf("no failures expected under full protection: %+v", c)
	}
}

func TestPerInstruction(t *testing.T) {
	p := buildAccumulator(t)
	g, _ := NewGolden(p, []uint64{100}, 0)
	ids := AllInstructionIDs(p)
	results := PerInstructionParallel(p, g, ids, 30, ParallelOptions{Seed: 17})
	if len(results) != len(ids) {
		t.Fatalf("results = %d, want %d", len(results), len(ids))
	}
	anyNonZero := false
	for _, r := range results {
		if g.InstrCounts[r.ID] > 0 && r.Counts.Trials != 30 {
			t.Fatalf("instr %d has %d trials", r.ID, r.Counts.Trials)
		}
		if g.InstrCounts[r.ID] == 0 && r.Counts.Trials != 0 {
			t.Fatalf("never-executed instr %d got trials", r.ID)
		}
		if r.Counts.SDC > 0 {
			anyNonZero = true
		}
	}
	if !anyNonZero {
		t.Fatal("no instruction showed any SDC")
	}
	vec := PerInstructionVector(p.NumInstrs(), results)
	if len(vec) != p.NumInstrs() {
		t.Fatal("vector length")
	}
}

func TestClassifyNonActivatedIsBenign(t *testing.T) {
	p := buildAccumulator(t)
	g, _ := NewGolden(p, []uint64{50}, 0)
	plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: g.DynCount + 999, Bit: 0}
	o, r := Classify(interp.NewInjector(p), g, &plan, xrand.New(1), nil)
	if o != Benign || r.Injected {
		t.Fatalf("non-activated fault: %v, injected %v", o, r.Injected)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{Benign: "benign", SDC: "sdc", Crash: "crash", Hang: "hang", Detected: "detected"} {
		if o.String() != want {
			t.Fatalf("%d = %q", o, o.String())
		}
	}
}

// Regression for the silent-Benign bug: an Outcome value outside the enum
// must panic instead of quietly inflating the Benign tally (which would
// deflate SDC probabilities if the enum ever grows without Add keeping up).
func TestCountsAddUnknownOutcomePanics(t *testing.T) {
	var c Counts
	defer func() {
		if recover() == nil {
			t.Fatal("Counts.Add(outcome(99)) did not panic")
		}
	}()
	c.Add(Outcome(99))
}

func TestCountsAddBenignExplicit(t *testing.T) {
	var c Counts
	c.Add(Benign)
	c.Add(Benign)
	c.Add(SDC)
	if c.Benign != 2 || c.SDC != 1 || c.Trials != 3 {
		t.Fatalf("tallies wrong: %+v", c)
	}
}

func TestCountsFields(t *testing.T) {
	c := Counts{Trials: 10, SDC: 3, Crash: 2, Hang: 1, Benign: 4, DynInstrs: 1234}
	fields := c.Fields()
	want := map[string]any{"trials": 10, "sdc": 3, "crash": 2, "hang": 1,
		"benign": 4, "detected": 0, "dyn": int64(1234)}
	if len(fields) != len(want) {
		t.Fatalf("got %d fields, want %d", len(fields), len(want))
	}
	for _, f := range fields {
		if w, ok := want[f.Key]; !ok || f.Val != w {
			t.Fatalf("field %q = %v (%T), want %v", f.Key, f.Val, f.Val, w)
		}
	}
}
