package campaign

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/prog"
)

func TestShardRangePartitions(t *testing.T) {
	for _, trials := range []int{0, 1, 2, 7, 100, 1001} {
		for _, shards := range []int{1, 2, 3, 4, 7, 16} {
			covered := 0
			prevHi := 0
			for sh := 0; sh < shards; sh++ {
				lo, hi := ShardRange(trials, sh, shards)
				if lo != prevHi {
					t.Fatalf("trials=%d shards=%d shard %d: lo=%d, want %d (contiguous)", trials, shards, sh, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("trials=%d shards=%d shard %d: hi=%d < lo=%d", trials, shards, sh, hi, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != trials || prevHi != trials {
				t.Fatalf("trials=%d shards=%d: covered %d, last hi %d", trials, shards, covered, prevHi)
			}
		}
	}
	if lo, hi := ShardRange(10, -1, 4); lo != 0 || hi != 0 {
		t.Fatalf("out-of-range shard: [%d, %d)", lo, hi)
	}
	if lo, hi := ShardRange(10, 4, 4); lo != 0 || hi != 0 {
		t.Fatalf("out-of-range shard: [%d, %d)", lo, hi)
	}
	// shards < 1 clamps to a single shard owning the whole range.
	if lo, hi := ShardRange(10, 0, 0); lo != 0 || hi != 10 {
		t.Fatalf("zero shards: [%d, %d)", lo, hi)
	}
}

func TestCountsMerge(t *testing.T) {
	a := Counts{Trials: 3, SDC: 1, Crash: 1, Hang: 0, Benign: 1, Detected: 2, DynInstrs: 100}
	b := Counts{Trials: 2, SDC: 0, Crash: 1, Hang: 1, Benign: 0, Detected: 1, DynInstrs: 50}
	a.Merge(b)
	want := Counts{Trials: 5, SDC: 1, Crash: 2, Hang: 1, Benign: 1, Detected: 3, DynInstrs: 150}
	if a != want {
		t.Fatalf("merge: %+v, want %+v", a, want)
	}
}

// TestOverallShardedEquivalence is the sharding differential gate: for every
// prog benchmark, the merged tally of a sharded flat campaign must be
// bit-identical to the unsharded run at every shard count, worker count, and
// batch size — trial RNG streams derive from (seed, global trial index), so
// the split point cannot matter.
func TestOverallShardedEquivalence(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 80
	}
	for _, name := range prog.Names() {
		if testing.Short() && heavyBenches[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 17
			ref := OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: 1, Seed: seed})
			for _, shards := range []int{1, 2, 4} {
				for _, cfg := range []struct{ workers, batch int }{{1, 1}, {4, 64}} {
					got := OverallSharded(b.Prog, g, trials, shards, ParallelOptions{
						Workers: cfg.workers, Seed: seed, BatchSize: cfg.batch,
					})
					if got != ref {
						t.Fatalf("shards=%d workers=%d batch=%d: %+v vs unsharded %+v",
							shards, cfg.workers, cfg.batch, got, ref)
					}
				}
			}
		})
	}
}

// TestOverallShardIndependentRanges checks the shard primitive directly:
// running each range separately and merging in order equals the whole run,
// and disjoint ranges sum to the full trial count.
func TestOverallShardIndependentRanges(t *testing.T) {
	p := buildAccumulator(t)
	g, err := NewGolden(p, []uint64{150}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const trials, seed = 120, 23
	ref := OverallParallel(p, g, trials, ParallelOptions{Workers: 1, Seed: seed})
	var merged Counts
	for _, r := range [][2]int{{0, 50}, {50, 51}, {51, 120}} {
		merged.Merge(OverallShard(p, g, r[0], r[1], ParallelOptions{Workers: 2, Seed: seed, BatchSize: 8}))
	}
	if merged != ref {
		t.Fatalf("merged shards %+v != unsharded %+v", merged, ref)
	}
	if c := OverallShard(p, g, 5, 5, ParallelOptions{Seed: seed}); c.Trials != 0 {
		t.Fatalf("empty range ran %d trials", c.Trials)
	}
}

// TestShardedRunnerAdaptiveEquivalence: an adaptive campaign driven through
// the sharded runner must match the default runner bit for bit — the runner
// only re-partitions the round's plan list.
func TestShardedRunnerAdaptiveEquivalence(t *testing.T) {
	name := "pathfinder"
	b := prog.Build(name)
	g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	base := OverallAdaptive(b.Prog, g, AdaptiveOptions{Seed: 7, MaxTrials: 240})
	for _, shards := range []int{1, 2, 4} {
		got := OverallAdaptive(b.Prog, g, AdaptiveOptions{Seed: 7, MaxTrials: 240, Runner: ShardedRunner(shards)})
		if got.Counts != base.Counts || got.Estimate != base.Estimate || got.Lo != base.Lo || got.Hi != base.Hi || got.Rounds != base.Rounds {
			t.Fatalf("shards=%d: adaptive diverged: %+v vs %+v", shards, got, base)
		}
	}
}

// TestOverallShardedCancellation: a pre-canceled context runs nothing; a
// context canceled mid-campaign keeps the completed trials honest (every
// reported trial is a real one — no zero-value Benign padding).
func TestOverallShardedCancellation(t *testing.T) {
	p := buildAccumulator(t)
	g, err := NewGolden(p, []uint64{150}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := OverallSharded(p, g, 100, 4, ParallelOptions{Workers: 2, Seed: 3, Ctx: ctx})
	if c.Trials != 0 {
		t.Fatalf("pre-canceled campaign ran %d trials", c.Trials)
	}
	if c = OverallParallel(p, g, 100, ParallelOptions{Workers: 2, Seed: 3, Ctx: ctx}); c.Trials != 0 {
		t.Fatalf("pre-canceled parallel campaign ran %d trials", c.Trials)
	}

	// Mid-flight cancel: fire after the first classified trial. The exact
	// stopping point is scheduling-dependent; the invariant is partial and
	// honest, not a specific count. The two shards run concurrently, so
	// the detector's flag is shared between goroutines.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var fired atomic.Bool
	det := func(int) bool {
		if fired.CompareAndSwap(false, true) {
			cancel2()
		}
		return false
	}
	c = OverallSharded(p, g, 200, 2, ParallelOptions{Workers: 1, Seed: 3, Ctx: ctx2, Detector: det})
	if c.Trials >= 200 {
		t.Fatalf("mid-flight cancel did not stop the campaign: %d trials", c.Trials)
	}
	sum := c.SDC + c.Crash + c.Hang + c.Benign + c.Detected
	if sum != c.Trials {
		t.Fatalf("outcome sum %d != trials %d (phantom outcomes)", sum, c.Trials)
	}
	cancel2()
}
