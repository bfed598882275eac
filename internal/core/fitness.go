package core

import (
	"sync"

	"repro/internal/interp"
	"repro/internal/prog"
)

// FitnessEval is a reusable candidate-evaluation context for one benchmark
// and score vector: the §4.2.5 fitness Σᵢ Pᵢ·(Nᵢ/N_total) evaluated through
// the interpreter's profiling fast path. The per-instruction scores are
// folded once into block/edge counter space (Program.CounterScores), and
// each evaluation is one fast-path run plus a loop over the counter space —
// no per-instruction work, no InstrCounts materialization.
//
// Evaluations are allocation-free in steady state: a sync.Pool hands each
// worker a context owning a Profiler (machine state reused across runs) and
// an argument-encoding buffer, so concurrent GA candidate evaluation scales
// without sharing mutable state.
type FitnessEval struct {
	b             *prog.Benchmark
	counterScores []float64
	pool          sync.Pool
}

type fitnessCtx struct {
	prof *interp.Profiler
	args []uint64
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

// Eval runs one candidate and returns its fitness and the dynamic
// instructions spent. Inputs whose fault-free run fails score 0 (§3.1.2
// excludes error-raising inputs). Safe for concurrent use.
func (fe *FitnessEval) Eval(input []float64) (float64, int64) {
	ctx := fe.pool.Get().(*fitnessCtx)
	ctx.args = fe.b.EncodeInto(ctx.args[:0], input)
	r := ctx.prof.Run(ctx.args, fe.b.MaxDyn)
	f := r.Fitness(fe.counterScores)
	dyn := r.DynCount
	fe.pool.Put(ctx)
	return f, dyn
}

// EvalProbe is Eval plus coverage feedback: it copies the candidate run's
// block/edge hit counters into dst (grown as needed) and returns them with
// the fitness and dynamic-instruction spend. Failed runs return nil counters
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
