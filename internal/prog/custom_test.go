package prog

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/interp"
	"repro/internal/ir"
)

// buildDotProduct constructs a small user program: a dot product of two
// LCG-generated vectors with a printed result.
func buildDotProduct(t testing.TB) *ir.Module {
	t.Helper()
	m := ir.NewModule("dotprod")
	f := m.NewFunc("main", ir.Void,
		&ir.Param{Name: "n", Ty: ir.I64},
		&ir.Param{Name: "seed", Ty: ir.I64},
		&ir.Param{Name: "scale", Ty: ir.F64},
	)
	b := ir.NewBuilder(f)
	h := v{b}
	n := b.Param(0)
	state := h.newVar(ir.I64, b.Param(1))
	va := b.Alloca(n)
	vb := b.Alloca(n)
	h.loop("gen", ir.I64c(0), n, func(i ir.Value) {
		b.Store(b.FMul(h.lcgF64(state), b.Param(2)), b.GEP(va, i))
		b.Store(h.lcgF64(state), b.GEP(vb, i))
	})
	acc := h.newVar(ir.F64, ir.F64c(0))
	h.loop("dot", ir.I64c(0), n, func(i ir.Value) {
		h.faddVar(acc, b.FMul(b.Load(ir.F64, b.GEP(va, i)), b.Load(ir.F64, b.GEP(vb, i))))
	})
	h.printF64(h.get(acc))
	b.Ret(nil)
	m.Finalize()
	return m
}

const dotSpec = "n:int:8:256:32,seed:int:1:100000:7,scale:float:0.1:10:1"

func TestParseArgSpecs(t *testing.T) {
	specs, err := ParseArgSpecs(dotSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].Name != "n" || specs[0].Kind != ArgInt || specs[0].Min != 8 || specs[0].Max != 256 || specs[0].Ref != 32 {
		t.Fatalf("spec[0] = %+v", specs[0])
	}
	if specs[2].Kind != ArgFloat {
		t.Fatalf("spec[2] kind = %v", specs[2].Kind)
	}
	// Default small range: bottom tenth.
	if specs[0].SmallMin != 8 || specs[0].SmallMax != 8+(256-8)*0.1 {
		t.Fatalf("small range = [%v, %v]", specs[0].SmallMin, specs[0].SmallMax)
	}
	// Explicit small range.
	withSmall, err := ParseArgSpecs("x:int:1:100:50:2:5")
	if err != nil {
		t.Fatal(err)
	}
	if withSmall[0].SmallMin != 2 || withSmall[0].SmallMax != 5 {
		t.Fatalf("explicit small range = %+v", withSmall[0])
	}
}

func TestParseArgSpecsErrors(t *testing.T) {
	bad := []string{
		"",
		"x:int:1:100",      // missing ref
		"x:bool:1:100:50",  // bad kind
		"x:int:1:abc:50",   // bad number
		"x:int:100:1:50",   // inverted range
		"x:int:1:100:999",  // ref outside range
		"x:int:1:100:50:2", // partial small range
	}
	for _, s := range bad {
		if _, err := ParseArgSpecs(s); err == nil {
			t.Errorf("spec %q accepted", s)
		}
	}
}

func TestLoadCustomRoundTrip(t *testing.T) {
	m := buildDotProduct(t)
	text := ir.Print(m)
	b, err := LoadCustom(text, dotSpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "dotprod" || b.Suite != "custom" {
		t.Fatalf("benchmark = %+v", b)
	}
	// The custom benchmark must run under the standard campaign machinery.
	g, err := campaign.NewGolden(b.Prog, b.Encode(b.RefInput()), b.MaxDyn)
	if err != nil {
		t.Fatal(err)
	}
	c := campaign.OverallParallel(b.Prog, g, 150, campaign.ParallelOptions{Seed: 1})
	if c.Trials != 150 {
		t.Fatalf("trials = %d", c.Trials)
	}
	if c.SDC == 0 {
		t.Fatal("dot product with printed output should show some SDCs")
	}
}

func TestCustomSignatureMismatch(t *testing.T) {
	m := buildDotProduct(t)
	// Spec with a float where the program takes an int.
	if _, err := Custom(m, []ArgSpec{
		{Name: "n", Kind: ArgFloat, Min: 1, Max: 10, Ref: 5},
		{Name: "seed", Kind: ArgInt, Min: 1, Max: 10, Ref: 5},
		{Name: "scale", Kind: ArgFloat, Min: 1, Max: 10, Ref: 5},
	}, 0); err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Fatalf("want signature error, got %v", err)
	}
	// Wrong arity.
	if _, err := Custom(m, []ArgSpec{{Name: "n", Kind: ArgInt, Min: 1, Max: 10, Ref: 5}}, 0); err == nil {
		t.Fatal("want arity error")
	}
}

func TestCustomBenchmarkThroughPipelinePieces(t *testing.T) {
	// The custom program must work with profiling and per-instruction FI,
	// the pieces the PEPPA-X pipeline uses.
	m := buildDotProduct(t)
	b, err := Custom(m, mustSpecs(t, dotSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := interp.Run(b.Prog, b.Encode([]float64{16, 3, 2}), interp.Options{Profile: true})
	if r.Trap != nil || len(r.Output) != 1 {
		t.Fatalf("run failed: %v / %v", r.Trap, r.Output)
	}
	if cov := r.Coverage(b.Prog.NumInstrs()); cov < 0.9 {
		t.Fatalf("coverage %v", cov)
	}
}

func mustSpecs(t *testing.T, s string) []ArgSpec {
	t.Helper()
	specs, err := ParseArgSpecs(s)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}
