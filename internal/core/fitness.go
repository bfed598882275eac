package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/parallel"
	"repro/internal/prog"
)

// FitnessEval is a reusable candidate-evaluation context for one benchmark
// and score vector: the §4.2.5 fitness Σᵢ Pᵢ·(Nᵢ/N_total) evaluated through
// the interpreter's profiling fast path. The per-instruction scores are
// folded once into block/edge counter space (Program.CounterScores), and
// each profiled run is one fast-path run plus a loop over the counter
// space — no per-instruction work, no InstrCounts materialization.
//
// Eval profiles each distinct input once. The fitness is a pure function of
// the encoded argument words (Benchmark.EncodeInto): the program sees
// nothing else, so two genomes that encode alike share one run. A memo
// keyed by those words records each run's (fitness, dyn). It is
// single-flight per key (parallel.Memo): concurrent evaluations of one
// input run the profiler once and share its result, so results, hit counts
// and executed dyn do not depend on the worker count. A hit returns the
// recorded dyn, so callers charge every evaluation as one profiled run —
// the paper's cost model counts evaluations — while Profiled reports what
// actually ran. The memo lives as long as the FitnessEval (one search), so
// it is unbounded.
//
// A sync.Pool hands each worker a context owning a Profiler (machine state
// reused across runs) and the argument and key buffers, so concurrent
// evaluation shares no mutable state but the memo. Each Eval allocates its
// key string; a miss also allocates the memo entry. The profiled run itself
// allocates nothing in steady state.
type FitnessEval struct {
	b             *prog.Benchmark
	counterScores []float64
	pool          sync.Pool
	memo          parallel.Memo[fitnessRun]
	executedDyn   atomic.Int64
}

type fitnessCtx struct {
	prof *interp.Profiler
	args []uint64
	key  []byte
}

// fitnessRun is the memoized outcome of one profiled candidate run.
type fitnessRun struct {
	fitness float64
	dyn     int64
}

// NewFitnessEval builds an evaluator for b under the per-instruction
// scores.
func NewFitnessEval(b *prog.Benchmark, scores []float64) *FitnessEval {
	fe := &FitnessEval{b: b, counterScores: b.Prog.CounterScores(scores)}
	fe.pool.New = func() any {
		return &fitnessCtx{prof: interp.NewProfiler(b.Prog)}
	}
	return fe
}

// Eval returns a candidate's fitness and the dynamic instructions its
// profiled run executes, running the profiler only for an input this
// evaluator has not profiled before. Inputs whose fault-free run fails
// score 0 (§3.1.2 excludes error-raising inputs). Safe for concurrent use.
func (fe *FitnessEval) Eval(input []float64) (float64, int64) {
	ctx := fe.pool.Get().(*fitnessCtx)
	ctx.args = fe.b.EncodeInto(ctx.args[:0], input)
	ctx.key = ctx.key[:0]
	for _, w := range ctx.args {
		ctx.key = binary.LittleEndian.AppendUint64(ctx.key, w)
	}
	run, _ := fe.memo.Get(string(ctx.key), func() (fitnessRun, error) {
		r := ctx.prof.Run(ctx.args, fe.b.MaxDyn)
		fe.executedDyn.Add(r.DynCount)
		return fitnessRun{fitness: r.Fitness(fe.counterScores), dyn: r.DynCount}, nil
	})
	fe.pool.Put(ctx)
	return run.fitness, run.dyn
}

// Profiled reports what Eval actually executed: the distinct inputs it ran
// through the profiler (its memo misses) and the dynamic instructions those
// runs executed. Both depend only on the inputs evaluated, not on their
// order or the worker count. EvalProbe runs are not included.
func (fe *FitnessEval) Profiled() (inputs int, dyn int64) {
	return int(fe.memo.Stats().Misses), fe.executedDyn.Load()
}

// EvalProbe is an uncached evaluation plus coverage feedback: it always
// runs the profiler, because the rare-branch fuzzer needs the run's hit
// counters, which the memo does not keep. It copies the run's block/edge
// hit counters into dst (grown as needed) and returns them with the
// fitness and dynamic-instruction spend. Failed runs return nil counters
// (and fitness 0), which is the rare-branch fuzzer's invalid-candidate
// signal. Safe for concurrent use, though each caller should own its dst.
func (fe *FitnessEval) EvalProbe(input []float64, dst []int64) (float64, []int64, int64) {
	ctx := fe.pool.Get().(*fitnessCtx)
	ctx.args = fe.b.EncodeInto(ctx.args[:0], input)
	r := ctx.prof.Run(ctx.args, fe.b.MaxDyn)
	f := r.Fitness(fe.counterScores)
	dyn := r.DynCount
	if r.Failed() {
		fe.pool.Put(ctx)
		return 0, nil, dyn
	}
	dst = r.Counters(dst)
	fe.pool.Put(ctx)
	return f, dst, dyn
}
