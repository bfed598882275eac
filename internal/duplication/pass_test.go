package duplication

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

func TestApplyPassPreservesSemantics(t *testing.T) {
	// Fault-free runs of the transformed program must produce identical
	// output and never raise sdc_detect.
	for _, name := range prog.Names() {
		b := prog.Build(name)
		ids := DuplicableIDs(b.Module)
		mod, err := ApplyPass(b.Module, ids)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p2, err := interp.Compile(mod)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		in := b.Encode(b.RefInput())
		orig := interp.Run(b.Prog, in, interp.Options{MaxDyn: b.MaxDyn})
		prot := interp.Run(p2, in, interp.Options{MaxDyn: b.MaxDyn * 4})
		if prot.Trap != nil || prot.BudgetExceeded {
			t.Fatalf("%s: protected run failed: %v", name, prot.Trap)
		}
		if prot.DetectedFlag {
			t.Fatalf("%s: fault-free protected run raised sdc_detect", name)
		}
		if !interp.OutputEqual(orig.Output, prot.Output) {
			t.Fatalf("%s: protected output differs from original", name)
		}
		if prot.DynCount <= orig.DynCount {
			t.Fatalf("%s: duplication added no overhead (%d vs %d)", name, prot.DynCount, orig.DynCount)
		}
	}
}

func TestApplyPassOverheadTracksSelection(t *testing.T) {
	// Protecting everything should roughly triple the dynamic count
	// (duplicate + compare per protected value op); protecting nothing
	// should leave it unchanged.
	b := prog.Build("pathfinder")
	in := b.Encode(b.RefInput())
	orig := interp.Run(b.Prog, in, interp.Options{})

	empty, err := ApplyPass(b.Module, nil)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := interp.Compile(empty)
	r0 := interp.Run(p0, in, interp.Options{})
	if r0.DynCount != orig.DynCount {
		t.Fatalf("empty selection changed dyn count: %d vs %d", r0.DynCount, orig.DynCount)
	}

	full, err := ApplyPass(b.Module, DuplicableIDs(b.Module))
	if err != nil {
		t.Fatal(err)
	}
	pF, _ := interp.Compile(full)
	rF := interp.Run(pF, in, interp.Options{MaxDyn: b.MaxDyn * 4})
	ratio := float64(rF.DynCount) / float64(orig.DynCount)
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("full-duplication overhead ratio %.2f implausible", ratio)
	}
}

func TestPassDetectsInjectedFaults(t *testing.T) {
	// With every duplicable instruction protected, a large share of
	// injected faults must be caught by the in-program checks.
	b := prog.Build("needle")
	mod, err := ApplyPass(b.Module, DuplicableIDs(b.Module))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := interp.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	g, err := campaign.NewGolden(p2, b.Encode(b.RefInput()), b.MaxDyn*4)
	if err != nil {
		t.Fatal(err)
	}
	c := campaign.OverallParallel(p2, g, 400, campaign.ParallelOptions{Seed: 8})
	if c.Detected == 0 {
		t.Fatal("no faults detected by the duplication instrumentation")
	}
	detRate := float64(c.Detected) / float64(c.Trials)
	if detRate < 0.3 {
		t.Fatalf("detection rate %.2f too low for full duplication", detRate)
	}
	t.Logf("full duplication on needle: detected %.1f%%, SDC %.1f%%, crash %d, benign %d",
		detRate*100, c.SDCProbability()*100, c.Crash, c.Benign)
}

func TestPassAgreesWithDetectorModel(t *testing.T) {
	// The detector-predicate model and the real pass must agree on the
	// direction and rough magnitude of SDC reduction.
	b := prog.Build("pathfinder")
	refGolden, err := campaign.NewGolden(b.Prog, b.Encode(b.RefInput()), b.MaxDyn)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	profiles := Profile(b.Prog, refGolden, 10, rng)
	sel := FilterDuplicable(b.Module, Select(profiles, refGolden.DynCount, 0.7))

	model := campaign.OverallParallel(b.Prog, refGolden, 600, campaign.ParallelOptions{Seed: rng.Uint64(), Detector: sel.Detector()})

	mod, err := ApplyPass(b.Module, sel.Protected)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := interp.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := campaign.NewGolden(p2, b.Encode(b.RefInput()), b.MaxDyn*4)
	if err != nil {
		t.Fatal(err)
	}
	pass := campaign.OverallParallel(p2, g2, 600, campaign.ParallelOptions{Seed: rng.Uint64()})

	unprot := campaign.OverallParallel(b.Prog, refGolden, 600, campaign.ParallelOptions{Seed: rng.Uint64()})
	if model.SDCProbability() >= unprot.SDCProbability() {
		t.Fatalf("detector model did not reduce SDC: %.3f vs %.3f",
			model.SDCProbability(), unprot.SDCProbability())
	}
	if pass.SDCProbability() >= unprot.SDCProbability() {
		t.Fatalf("pass did not reduce SDC: %.3f vs %.3f",
			pass.SDCProbability(), unprot.SDCProbability())
	}
	t.Logf("pathfinder @70%%: unprotected %.1f%%, detector model %.1f%%, real pass %.1f%% (pass detected %.1f%%)",
		unprot.SDCProbability()*100, model.SDCProbability()*100,
		pass.SDCProbability()*100, float64(pass.Detected)/float64(pass.Trials)*100)
}

func TestFilterDuplicable(t *testing.T) {
	b := prog.Build("fft")
	all := make([]int, b.Prog.NumInstrs())
	flags := make([]bool, b.Prog.NumInstrs())
	for i := range all {
		all[i] = i
		flags[i] = true
	}
	pr := &Protection{Protected: all, IsProtected: flags}
	filtered := FilterDuplicable(b.Module, pr)
	if len(filtered.Protected) == 0 || len(filtered.Protected) >= len(all) {
		t.Fatalf("filtered %d of %d", len(filtered.Protected), len(all))
	}
	instrs := b.Module.Instrs()
	for _, id := range filtered.Protected {
		if !Duplicable(instrs[id]) {
			t.Fatalf("non-duplicable %v kept", instrs[id].Op)
		}
	}
}
