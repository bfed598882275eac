package campaign

import (
	"math"
	"slices"
	"testing"

	"repro/internal/prog"
)

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

// TestHugeWorkerCount: per-worker state is sized by the work, never by the
// knob alone, so math.MaxInt workers runs flat and per-instruction
// campaigns with the serial tallies instead of failing to allocate.
func TestHugeWorkerCount(t *testing.T) {
	b := prog.Build("pathfinder")
	g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	huge := ParallelOptions{Workers: math.MaxInt, Seed: 4}
	serial := ParallelOptions{Workers: 1, Seed: 4}
	if got, want := OverallParallel(b.Prog, g, 5, huge), OverallParallel(b.Prog, g, 5, serial); got != want {
		t.Fatalf("flat campaign at math.MaxInt workers: %+v, want %+v", got, want)
	}
	ids := AllInstructionIDs(b.Prog)
	got := PerInstructionParallel(b.Prog, g, ids, 3, huge)
	want := PerInstructionParallel(b.Prog, g, ids, 3, serial)
	if !slices.Equal(got, want) {
		t.Fatal("per-instruction campaign at math.MaxInt workers differs from the serial one")
	}
}
