package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

func TestGenerateSDCCorpus(t *testing.T) {
	b := prog.Build("needle")
	rng := xrand.New(42)
	res, err := GenerateSDCCorpus(b, b.RefInput(), 20, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 20 {
		t.Fatalf("collected %d records", len(res.Records))
	}
	if res.Trials < 20 || res.DynInstrs <= 0 {
		t.Fatalf("bookkeeping wrong: %+v", res)
	}
	in := b.Encode(b.RefInput())
	golden := interp.Run(b.Prog, in, interp.Options{MaxDyn: b.MaxDyn})
	for _, r := range res.Records {
		if r.StaticID < 0 || r.StaticID >= b.Prog.NumInstrs() || r.TargetDyn < 1 {
			t.Fatalf("bad record %+v", r)
		}
		// A record is a replayable fault: flipping its bit at its dynamic
		// instruction reproduces an SDC at its static instruction.
		plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: r.TargetDyn, Bit: r.Bit}
		rr := interp.Run(b.Prog, in, interp.Options{Plan: &plan, MaxDyn: golden.DynCount*3 + 10000})
		if !rr.Injected || rr.InjectedID != r.StaticID || rr.Trap != nil || rr.BudgetExceeded ||
			interp.OutputEqual(rr.Output, golden.Output) {
			t.Errorf("record %+v does not replay as an SDC at its instruction: injected %v at %d, trap %v, hang %v",
				r, rr.Injected, rr.InjectedID, rr.Trap, rr.BudgetExceeded)
		}
	}
}

func TestGenerateSDCCorpusMaxTrials(t *testing.T) {
	b := prog.Build("needle")
	res, err := GenerateSDCCorpus(b, b.RefInput(), 1<<30, 50, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 50 {
		t.Fatalf("trials = %d, want 50 (cap)", res.Trials)
	}
}

func TestCorpusCheaperWithSDCBoundInput(t *testing.T) {
	// The §7.1.1 claim: an SDC-bound input needs fewer trials per record
	// than a low-SDC input. Use needle, whose reference input has ~6% SDC
	// while PEPPA-X-style inputs reach ~15%+.
	if testing.Short() {
		t.Skip("FI-heavy")
	}
	b := prog.Build("needle")
	rng := xrand.New(9)
	low, err := GenerateSDCCorpus(b, b.RefInput(), 40, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A known high-SDC region: short sequences, low penalty.
	high, err := GenerateSDCCorpus(b, []float64{5, 2, 2, 30}, 40, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if high.HitRate() <= low.HitRate() {
		t.Fatalf("SDC-bound input hit rate %.3f not above reference %.3f",
			high.HitRate(), low.HitRate())
	}
	t.Logf("corpus of 40: reference input %d trials (hit %.1f%%), SDC-bound input %d trials (hit %.1f%%) — %.1fx fewer",
		low.Trials, low.HitRate()*100, high.Trials, high.HitRate()*100,
		float64(low.Trials)/float64(high.Trials))
}
