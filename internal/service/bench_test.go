package service

// Service-layer benchmarks behind the BENCH_shard.json regression gate.
//
// BenchmarkServiceShard reports two deterministic metrics per benchmark:
// dyn/op (total campaign dynamic instructions) and dyncrit/op (the largest
// single-shard share — the critical path with one executor per shard). The
// committed shard_speedup is shards1 dyncrit ÷ shards2 dyncrit, which a
// single-core CI host can measure exactly because it is a property of the
// trial partition, not of the wall clock.
//
// BenchmarkServiceGolden reports setupdyn/op — the golden-run + checkpoint
// setup cost a job pays — for a cold cache (first submission) and a warm one
// (repeat submission). cache_elimination = 1 − warm/cold.
//
// Regenerate with:
//
//	make bench-shard
//
//	go test -run '^$' -bench 'BenchmarkService(Shard|Golden)' -benchtime 1x \
//	    ./internal/service | benchjson > BENCH_shard.json

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/prog"
)

const benchTrials = 400

func benchGolden(b *testing.B, name string) (*prog.Benchmark, *campaign.Golden) {
	b.Helper()
	bench := prog.Build(name)
	g, err := campaign.NewGoldenCheckpointed(bench.Prog, bench.Encode(bench.RefInput()), bench.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		b.Fatal(err)
	}
	return bench, g
}

func BenchmarkServiceShard(b *testing.B) {
	for _, shards := range []int{1, 2} {
		name := map[int]string{1: "shards1", 2: "shards2"}[shards]
		b.Run(name, func(b *testing.B) {
			for _, prg := range prog.Names() {
				b.Run(prg, func(b *testing.B) {
					bench, g := benchGolden(b, prg)
					var total, crit int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						total, crit = 0, 0
						for sh := 0; sh < shards; sh++ {
							lo, hi := campaign.ShardRange(benchTrials, sh, shards)
							c := campaign.OverallShard(bench.Prog, g, lo, hi, campaign.ParallelOptions{
								Workers: 1, Seed: 17,
							})
							total += c.DynInstrs
							if c.DynInstrs > crit {
								crit = c.DynInstrs
							}
						}
					}
					b.ReportMetric(float64(total), "dyn/op")
					b.ReportMetric(float64(crit), "dyncrit/op")
				})
			}
		})
	}
}

func BenchmarkServiceGolden(b *testing.B) {
	for _, prg := range prog.Names() {
		prg := prg
		// Cold: every submission builds its own cache — the no-service
		// baseline where each job pays the full golden + checkpoint setup.
		b.Run("cold/"+prg, func(b *testing.B) {
			be := New(Config{}).cache.bench(prg)
			var setup int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache := newWorkCache(DefaultGoldenCap, DefaultProfileCap)
				ge, cached, err := cache.golden(be, be.b.RefInput())
				if err != nil {
					b.Fatal(err)
				}
				if cached {
					b.Fatal("cold path hit the cache")
				}
				setup = ge.setupDyn
			}
			b.ReportMetric(float64(setup), "setupdyn/op")
		})
		// Warm: repeat submissions against a populated cache pay nothing.
		b.Run("warm/"+prg, func(b *testing.B) {
			be := New(Config{}).cache.bench(prg)
			cache := newWorkCache(DefaultGoldenCap, DefaultProfileCap)
			if _, _, err := cache.golden(be, be.b.RefInput()); err != nil {
				b.Fatal(err)
			}
			var setup int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ge, cached, err := cache.golden(be, be.b.RefInput())
				if err != nil {
					b.Fatal(err)
				}
				if !cached {
					b.Fatal("warm path missed the cache")
				}
				_ = ge
				setup = 0
			}
			b.ReportMetric(float64(setup), "setupdyn/op")
		})
	}
}
