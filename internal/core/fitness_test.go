package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ga"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// randomScores is a fixed per-instruction score vector for b.
func randomScores(b *prog.Benchmark, seed uint64) []float64 {
	rng := xrand.New(seed)
	scores := make([]float64, b.Prog.NumInstrs())
	for i := range scores {
		scores[i] = rng.Float64()
	}
	return scores
}

// TestFitnessMemoGAEquivalence: a GA driven by the memoized FitnessEval.Eval
// must end exactly where one driven by a never-hitting fitness (a fresh
// evaluator per call) ends — same populations, best individual, evaluation
// count and summed dyn — while profiling fewer inputs than it evaluates.
func TestFitnessMemoGAEquivalence(t *testing.T) {
	b := prog.Build("nbody")
	scores := randomScores(b, 5)
	seeds := []ga.Genome{ga.Genome(b.RefInput())}
	seedRNG := xrand.New(9)
	for len(seeds) < 4 {
		seeds = append(seeds, ga.Genome(b.RandomInput(seedRNG)))
	}
	type outcome struct {
		pop   []ga.Individual
		best  ga.Individual
		evals int
		dyn   int64
	}
	run := func(workers int, eval func(ga.Genome) (float64, int64)) outcome {
		var dyn atomic.Int64
		e, err := ga.New(ga.Config{
			PopSize: 8,
			Clamp:   func(g ga.Genome) { b.ClampInput(g) },
			Fitness: func(g ga.Genome) float64 {
				f, d := eval(g)
				dyn.Add(d)
				return f
			},
			Seed:    seeds,
			Workers: workers,
		}, xrand.New(31))
		if err != nil {
			t.Fatal(err)
		}
		for gen := 0; gen < 12; gen++ {
			e.Step()
		}
		return outcome{e.Population(), e.Best(), e.Evaluations, dyn.Load()}
	}

	fe := NewFitnessEval(b, scores)
	memo := run(4, func(g ga.Genome) (float64, int64) { return fe.Eval(g) })
	fresh := run(1, func(g ga.Genome) (float64, int64) { return NewFitnessEval(b, scores).Eval(g) })
	if !reflect.DeepEqual(memo, fresh) {
		t.Fatalf("memoized GA diverged from the uncached one:\n got best %v evals %d dyn %d\nwant best %v evals %d dyn %d",
			memo.best, memo.evals, memo.dyn, fresh.best, fresh.evals, fresh.dyn)
	}
	inputs, executed := fe.Profiled()
	if inputs <= 0 || inputs >= memo.evals || executed <= 0 || executed >= memo.dyn {
		t.Fatalf("memo profiled %d inputs (%d dyn) for %d evaluations (%d dyn): want some runs reused",
			inputs, executed, memo.evals, memo.dyn)
	}
}

// TestFitnessMemoKeysEncodedInput: two genomes that differ only below the
// rounding of their integer arguments encode to the same argument words, so
// they share one profiler run; a genome that encodes differently costs
// another.
func TestFitnessMemoKeysEncodedInput(t *testing.T) {
	b := prog.Build("nbody") // n, steps and seed are integers, dt and vmax floats
	fe := NewFitnessEval(b, randomScores(b, 3))
	f1, d1 := fe.Eval([]float64{8.2, 3, 0.1, 0.4, 7})
	f2, d2 := fe.Eval([]float64{7.8, 3.4, 0.1, 0.4, 6.6})
	if f1 != f2 || d1 != d2 {
		t.Fatalf("alike encodings scored (%v, %d) and (%v, %d)", f1, d1, f2, d2)
	}
	if n, dyn := fe.Profiled(); n != 1 || dyn != d1 {
		t.Fatalf("two alike encodings profiled %d inputs, %d dyn; want 1 input, %d dyn", n, dyn, d1)
	}
	_, d3 := fe.Eval([]float64{8, 3, 0.2, 0.4, 7})
	if n, dyn := fe.Profiled(); n != 2 || dyn != d1+d3 {
		t.Fatalf("a distinct encoding left %d inputs, %d dyn profiled; want 2, %d", n, dyn, d1+d3)
	}
}

// TestFitnessMemoSingleFlight: goroutines evaluating one input at once run
// the profiler once and all get the recorded result. xsbench's reference
// run is long enough that the goroutines overlap it, and each round starts
// a fresh evaluator. It runs under -short, so the race detector covers the
// single-flight path.
func TestFitnessMemoSingleFlight(t *testing.T) {
	b := prog.Build("xsbench")
	scores := randomScores(b, 4)
	in := b.RefInput()
	wantF, wantDyn := NewFitnessEval(b, scores).Eval(in)

	const n = 8
	for round := 0; round < 4; round++ {
		fe := NewFitnessEval(b, scores)
		fs := make([]float64, n)
		dyns := make([]int64, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				fs[i], dyns[i] = fe.Eval(in)
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range fs {
			if fs[i] != wantF || dyns[i] != wantDyn {
				t.Fatalf("round %d: goroutine %d got (%v, %d), want (%v, %d)", round, i, fs[i], dyns[i], wantF, wantDyn)
			}
		}
		if inputs, dyn := fe.Profiled(); inputs != 1 || dyn != wantDyn {
			t.Fatalf("round %d: %d concurrent evaluations profiled %d inputs, %d dyn; want 1 input, %d dyn",
				round, n, inputs, dyn, wantDyn)
		}
	}
}
