package campaign

import "testing"

func TestOverallParallelDeterministicAcrossWorkers(t *testing.T) {
	p := buildAccumulator(t)
	g, err := NewGolden(p, []uint64{150}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := OverallParallel(p, g, 300, ParallelOptions{Workers: 1, Seed: 9})
	for _, workers := range []int{2, 4, 8} {
		got := OverallParallel(p, g, 300, ParallelOptions{Workers: workers, Seed: 9})
		if got != base {
			t.Fatalf("workers=%d: %+v != %+v", workers, got, base)
		}
	}
}

func TestOverallParallelDetector(t *testing.T) {
	p := buildAccumulator(t)
	g, _ := NewGolden(p, []uint64{100}, 0)
	c := OverallParallel(p, g, 200, ParallelOptions{
		Workers: 4, Seed: 5, Detector: func(int) bool { return true },
	})
	if c.Detected != 200 || c.SDC != 0 {
		t.Fatalf("full protection under parallel campaign: %+v", c)
	}
}

func TestOverallParallelMoreWorkersThanTrials(t *testing.T) {
	p := buildAccumulator(t)
	g, _ := NewGolden(p, []uint64{50}, 0)
	c := OverallParallel(p, g, 3, ParallelOptions{Workers: 64, Seed: 1})
	if c.Trials != 3 {
		t.Fatalf("trials = %d", c.Trials)
	}
}

func TestPerInstructionParallelMatchesAnyWorkerCount(t *testing.T) {
	p := buildAccumulator(t)
	g, _ := NewGolden(p, []uint64{120}, 0)
	ids := AllInstructionIDs(p)
	a := PerInstructionParallel(p, g, ids, 20, ParallelOptions{Workers: 1, Seed: 3})
	b := PerInstructionParallel(p, g, ids, 20, ParallelOptions{Workers: 6, Seed: 3})
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instr %d differs across worker counts: %+v vs %+v", a[i].ID, a[i], b[i])
		}
	}
}
