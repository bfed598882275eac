package interp_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// The perf suite behind `make bench-fi`: golden-run interpreter throughput,
// checkpointed golden overhead, and the from-scratch vs checkpointed
// campaign comparison that BENCH_fi.json reports. Every benchmark reports
// dyn/op, the dynamic instructions per iteration as modeled (a trial that
// ended early by re-joining the golden counts its full run); campaign
// benchmarks also report skipped/op, the golden-prefix instructions the
// snapshot schedule saved, and converged/op, the trials per iteration that
// ended early.

const overallTrials = 1000

// BenchmarkGoldenRun measures plain fault-free execution of each program
// benchmark on its reference input.
func BenchmarkGoldenRun(b *testing.B) {
	for _, name := range prog.Names() {
		b.Run(name, func(b *testing.B) {
			bench := prog.Build(name)
			in := bench.Encode(bench.RefInput())
			var dyn int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := interp.Run(bench.Prog, in, interp.Options{MaxDyn: bench.MaxDyn})
				dyn = r.DynCount
			}
			b.ReportMetric(float64(dyn), "dyn/op")
		})
	}
}

// BenchmarkGoldenCheckpointed measures the same execution while recording
// the auto-tuned snapshot schedule — the overhead side of checkpointing —
// and reports snapbytes/op, the bytes the snapshots hold
// (CheckpointStats.Bytes), which depends on the program and input alone.
func BenchmarkGoldenCheckpointed(b *testing.B) {
	for _, name := range prog.Names() {
		b.Run(name, func(b *testing.B) {
			bench := prog.Build(name)
			in := bench.Encode(bench.RefInput())
			plain := interp.Run(bench.Prog, in, interp.Options{MaxDyn: bench.MaxDyn})
			interval := interp.AutoCheckpointInterval(plain.DynCount)
			var dyn, bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := interp.Run(bench.Prog, in, interp.Options{
					Profile: true, CheckpointInterval: interval, MaxDyn: bench.MaxDyn,
				})
				dyn, bytes = r.DynCount, r.Checkpoints.Stats().Bytes
			}
			b.ReportMetric(float64(dyn), "dyn/op")
			b.ReportMetric(float64(bytes), "snapbytes/op")
		})
	}
}

// BenchmarkOverall compares a full statistical FI campaign (overallTrials
// single-bit trials, the paper's 1000) across the three execution models:
// from scratch, per-trial resume from golden-prefix snapshots, and lockstep
// batches of trials forked copy-on-write off a shared trunk. All three run
// campaign.OverallParallel on one worker with seed 1, so they sample the
// same plans and their tallies are bit-identical. Every trial runs on the
// one trial engine (interp.Injector): generic engine through the
// injection, fast-path loop for the tail. The checkpointed and batched
// models share the campaign golden (NewGoldenCheckpointed); the scratch
// golden has no snapshots, so its trials neither resume nor end early.
// cmd/benchjson's overall_speedup (scratch/checkpointed ns/op) therefore
// counts the skipped golden prefix and the converged trials' tails, and
// its batch_speedup (checkpointed/batched) isolates the shared trunk.
func BenchmarkOverall(b *testing.B) {
	b.Run("scratch", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench := prog.Build(name)
				g, err := campaign.NewGolden(bench.Prog, bench.Encode(bench.RefInput()), bench.MaxDyn)
				if err != nil {
					b.Fatal(err)
				}
				benchmarkOverall(b, bench, g)
			})
		}
	})
	b.Run("checkpointed", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench := prog.Build(name)
				g, err := campaign.NewGoldenCheckpointed(bench.Prog, bench.Encode(bench.RefInput()), bench.MaxDyn, campaign.CheckpointAuto)
				if err != nil {
					b.Fatal(err)
				}
				benchmarkOverall(b, bench, g)
			})
		}
	})
	b.Run("batched", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench := prog.Build(name)
				g, err := campaign.NewGoldenCheckpointed(bench.Prog, bench.Encode(bench.RefInput()), bench.MaxDyn, campaign.CheckpointAuto)
				if err != nil {
					b.Fatal(err)
				}
				// Workers: 1 keeps the comparison single-threaded: the ratio
				// to checkpointed then isolates the batching mechanics
				// (shared trunk + COW forks), not thread parallelism.
				before := g.CheckpointStats()
				var c campaign.Counts
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c = campaign.OverallParallel(bench.Prog, g, overallTrials, campaign.ParallelOptions{
						Workers: 1, Seed: 1, BatchSize: 64,
					})
				}
				b.StopTimer()
				after := g.CheckpointStats()
				b.ReportMetric(float64(c.DynInstrs), "dyn/op")
				b.ReportMetric(float64(after.SkippedDyn-before.SkippedDyn)/float64(b.N), "skipped/op")
				b.ReportMetric(float64(after.Converged-before.Converged)/float64(b.N), "converged/op")
				b.ReportMetric(float64(after.Batches-before.Batches)/float64(b.N), "batches/op")
			})
		}
	})
}

// BenchmarkFitnessProfile measures one GA candidate evaluation — a profiled
// reference-input run folded into the §4.2.5 fitness — on two engines:
// perinstr is the reference engine, a profiled interp.Run over the unfused
// arrays with per-instruction counts, and fused is the fast loop behind
// core.FitnessEval: the work of one of its memo misses, a reused Profiler's
// run folded over Program.CounterScores. (FitnessEval.Eval itself would
// answer every iteration after the first from its memo.) cmd/benchjson
// derives the per-benchmark perinstr/fused speedup for BENCH_fitness.json.
// allocs/op is reported; the fast loop must be allocation-free in steady
// state.
func BenchmarkFitnessProfile(b *testing.B) {
	type evalFn = func(input []float64) (fitness float64, dyn int64)
	engines := []struct {
		name string
		eval func(bench *prog.Benchmark, scores []float64) evalFn
	}{
		{"perinstr", func(bench *prog.Benchmark, scores []float64) evalFn {
			return func(in []float64) (float64, int64) {
				r := interp.Run(bench.Prog, bench.Encode(in), interp.Options{Profile: true, MaxDyn: bench.MaxDyn})
				var acc float64
				for id, n := range r.InstrCounts {
					if n > 0 {
						acc += scores[id] * float64(n)
					}
				}
				return acc / float64(r.DynCount), r.DynCount
			}
		}},
		{"fused", func(bench *prog.Benchmark, scores []float64) evalFn {
			prof := interp.NewProfiler(bench.Prog)
			counterScores := bench.Prog.CounterScores(scores)
			var args []uint64
			return func(in []float64) (float64, int64) {
				args = bench.EncodeInto(args[:0], in)
				r := prof.Run(args, bench.MaxDyn)
				return r.Fitness(counterScores), r.DynCount
			}
		}},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			for _, name := range prog.Names() {
				b.Run(name, func(b *testing.B) {
					bench := prog.Build(name)
					rng := xrand.New(7)
					scores := make([]float64, bench.Prog.NumInstrs())
					for i := range scores {
						scores[i] = rng.Float64()
					}
					eval := eng.eval(bench, scores)
					in := bench.RefInput()
					var dyn int64
					eval(in) // warm the profiler and argument buffer
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_, dyn = eval(in)
					}
					b.StopTimer()
					b.ReportMetric(float64(dyn), "dyn/op")
				})
			}
		})
	}
}

func benchmarkOverall(b *testing.B, bench *prog.Benchmark, g *campaign.Golden) {
	before := g.CheckpointStats()
	var c campaign.Counts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = campaign.OverallParallel(bench.Prog, g, overallTrials, campaign.ParallelOptions{Workers: 1, Seed: 1})
	}
	b.StopTimer()
	after := g.CheckpointStats()
	b.ReportMetric(float64(c.DynInstrs), "dyn/op")
	b.ReportMetric(float64(after.SkippedDyn-before.SkippedDyn)/float64(b.N), "skipped/op")
	b.ReportMetric(float64(after.Converged-before.Converged)/float64(b.N), "converged/op")
}
