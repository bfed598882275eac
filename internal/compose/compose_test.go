package compose

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/prog"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Every benchmark partition must cover each injectable instruction exactly
// once, stay stable across rebuilds (cache keys depend on it), and fall
// back to block groups for the single-function kernels.
func TestPartitionCoversAndIsStable(t *testing.T) {
	for _, name := range prog.Names() {
		b := prog.Build(name)
		part := NewPartition(b.Prog)
		if part.Granularity != "block-group" {
			t.Errorf("%s: granularity = %q, want block-group for a single-function kernel", name, part.Granularity)
		}
		if len(part.Segments) < 2 {
			t.Errorf("%s: only %d segments — no composition structure", name, len(part.Segments))
		}
		seen := make(map[int]string)
		for _, s := range part.Segments {
			for _, id := range s.Instrs {
				if prev, dup := seen[id]; dup {
					t.Fatalf("%s: instruction %d in both %q and %q", name, id, prev, s.Name)
				}
				seen[id] = s.Name
			}
		}
		if len(seen) != b.Prog.NumInstrs() {
			t.Errorf("%s: partition covers %d/%d instructions", name, len(seen), b.Prog.NumInstrs())
		}
		again := NewPartition(prog.Build(name).Prog)
		if again.Hash != part.Hash {
			t.Errorf("%s: hash unstable across rebuilds: %s vs %s", name, part.Hash, again.Hash)
		}
		if !reflect.DeepEqual(again.Segments, part.Segments) {
			t.Errorf("%s: segments unstable across rebuilds", name)
		}
	}
}

// Two structurally different programs must never share a hash (and with it
// a cache key prefix).
func TestPartitionHashSeparatesPrograms(t *testing.T) {
	a := NewPartition(prog.Build("hpccg").Prog)
	b := NewPartition(prog.Build("pathfinder").Prog)
	if a.Hash == b.Hash {
		t.Fatalf("distinct programs share hash %s", a.Hash)
	}
}

// A module with enough functions partitions at function granularity.
func TestPartitionFunctionGranularity(t *testing.T) {
	m := ir.NewModule("multi")
	for _, fn := range []string{"main", "alpha", "beta", "gamma"} {
		f := m.NewFunc(fn, ir.I64)
		bld := ir.NewBuilder(f)
		v := bld.Add(ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2))
		bld.Ret(v)
	}
	m.Finalize()
	p, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	part := NewPartition(p)
	if part.Granularity != "function" {
		t.Fatalf("granularity = %q, want function", part.Granularity)
	}
	if len(part.Segments) != 4 {
		t.Fatalf("got %d segments, want 4", len(part.Segments))
	}
	for _, s := range part.Segments {
		if s.Name != s.Func {
			t.Errorf("function segment %q should be named after its function %q", s.Name, s.Func)
		}
	}
}

// helper: golden for a benchmark input.
func golden(t *testing.T, b *prog.Benchmark, in []float64) *campaign.Golden {
	t.Helper()
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(in), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A second estimate of the same mix must be a pure cache hit — no new
// measurement spend, identical numbers.
func TestEstimateExactReuse(t *testing.T) {
	b := prog.Build("pathfinder")
	g := golden(t, b, b.RefInput())
	e := NewEstimator(b.Prog, nil, Options{Trials: 200, Seed: 7, Workers: 2})
	first := e.EstimateGolden(g)
	if first.Measured == 0 || first.MeasureTrials == 0 {
		t.Fatalf("first estimate measured nothing: %+v", first)
	}
	second := e.EstimateGolden(g)
	if second.Measured != 0 || second.Remeasured != 0 || second.MeasureTrials != 0 || second.MeasureDyn != 0 {
		t.Fatalf("reuse estimate spent new measurement: %+v", second)
	}
	if second.P != first.P || second.Lo != first.Lo || second.Hi != first.Hi {
		t.Fatalf("reuse estimate differs: %v vs %v", second, first)
	}
	st := e.Stats()
	if st.Hits == 0 || st.Composed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStratifiedCanceledCompose: an estimate canceled before its first
// segment measured nothing, so it is 0 with the whole unit interval.
func TestStratifiedCanceledCompose(t *testing.T) {
	b := prog.Build("pathfinder")
	g := golden(t, b, b.RefInput())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est := NewEstimator(b.Prog, nil, Options{Trials: 200, Seed: 7, Ctx: ctx}).EstimateGolden(g)
	if est.Estimate != (campaign.Estimate{P: 0, Lo: 0, Hi: 1}) || est.MeasureTrials != 0 {
		t.Fatalf("canceled estimate %+v (%d trials), want 0 in [0, 1]", est.Estimate, est.MeasureTrials)
	}
	for _, se := range est.Segments {
		if se.Source != "skipped" {
			t.Fatalf("segment %s has source %q after cancellation", se.Segment, se.Source)
		}
	}
}

// A shifted execution mix beyond the threshold re-measures exactly the
// drifted segments; with Threshold < 0 re-measurement never triggers.
func TestEstimateRemeasureOnDrift(t *testing.T) {
	b := prog.Build("pathfinder")
	rng := xrand.New(3)
	gA := golden(t, b, b.RefInput())
	gB := golden(t, b, b.ClampInput(b.RandomInput(rng)))

	e := NewEstimator(b.Prog, nil, Options{Trials: 200, Seed: 7, Threshold: 1e-9})
	e.EstimateGolden(gA)
	estB := e.EstimateGolden(gB)
	if estB.Remeasured == 0 {
		t.Fatalf("near-zero threshold should force re-measurement on a different input: %+v", estB)
	}

	frozen := NewEstimator(b.Prog, nil, Options{Trials: 200, Seed: 7, Threshold: -1})
	frozen.EstimateGolden(gA)
	estB2 := frozen.EstimateGolden(gB)
	if estB2.Remeasured != 0 || estB2.Measured != 0 {
		t.Fatalf("negative threshold must never re-measure: %+v", estB2)
	}
}

// Weights mirror the input's dynamic mix: executed segments get their
// dynamic fraction, unexecuted ones weight 0 and source "skipped".
func TestEstimateWeightsMatchMix(t *testing.T) {
	b := prog.Build("hpccg")
	g := golden(t, b, b.RefInput())
	e := NewEstimator(b.Prog, nil, Options{Trials: 120, Seed: 5})
	est := e.EstimateGolden(g)
	part := e.Partition()
	var sum float64
	for si, se := range est.Segments {
		var segDyn int64
		for _, id := range part.Segments[si].Instrs {
			segDyn += g.InstrCounts[id]
		}
		want := float64(segDyn) / float64(g.DynCount)
		if se.Weight != want {
			t.Errorf("segment %s weight %.6f, want %.6f", se.Segment, se.Weight, want)
		}
		if segDyn == 0 && se.Source != "skipped" {
			t.Errorf("unexecuted segment %s has source %q", se.Segment, se.Source)
		}
		sum += se.Weight
	}
	if sum <= 0 || sum > 1 {
		t.Errorf("weight sum %.6f outside (0,1]", sum)
	}
	if est.Lo > est.P || est.Hi < est.P {
		t.Errorf("composed interval [%.4f,%.4f] does not bracket %.4f", est.Lo, est.Hi, est.P)
	}
}

// Estimators sharing one cache reuse each other's profiles; distinct
// programs never collide in it.
func TestSharedCacheAcrossEstimators(t *testing.T) {
	cache := NewCache(0)
	b := prog.Build("pathfinder")
	g := golden(t, b, b.RefInput())
	e1 := NewEstimator(b.Prog, cache, Options{Trials: 150, Seed: 7})
	e2 := NewEstimator(b.Prog, cache, Options{Trials: 150, Seed: 7})
	first := e1.EstimateGolden(g)
	second := e2.EstimateGolden(g)
	if second.Measured != 0 {
		t.Fatalf("second estimator re-measured despite shared cache: %+v", second)
	}
	if second.P != first.P {
		t.Fatalf("shared-cache estimates differ: %v vs %v", second.P, first.P)
	}

	o := prog.Build("hpccg")
	go2 := golden(t, o, o.RefInput())
	e3 := NewEstimator(o.Prog, cache, Options{Trials: 150, Seed: 7})
	third := e3.EstimateGolden(go2)
	if third.Measured == 0 {
		t.Fatalf("different program must miss the shared cache: %+v", third)
	}
}

// TestComposeMetricsAreTotals: estimators sharing one recorder add their
// cache outcomes to the same compose.* counters, so -metrics and /metrics
// show the process's totals rather than the tallies of whichever
// estimator composed last.
func TestComposeMetricsAreTotals(t *testing.T) {
	rec := telemetry.New(telemetry.Options{})
	cache := NewCache(0)
	b := prog.Build("pathfinder")
	g := golden(t, b, b.RefInput())
	e1 := NewEstimator(b.Prog, cache, Options{Trials: 150, Seed: 7, Trace: rec.Stream("search")})
	e2 := NewEstimator(b.Prog, cache, Options{Trials: 150, Seed: 7, Trace: rec.Stream("baseline")})
	e1.EstimateGolden(g)
	e1.EstimateGolden(g)
	e2.EstimateGolden(g)
	var sum Stats
	sum.Add(e1.Stats())
	sum.Add(e2.Stats())
	if sum.Composed != 3 || sum.Misses == 0 || sum.Hits <= sum.Misses {
		t.Fatalf("estimators' stats %+v, want 3 compositions, first misses, then hits", sum)
	}
	for name, want := range map[string]int64{
		"compose.hits": sum.Hits, "compose.misses": sum.Misses,
		"compose.remeasured": sum.Remeasured, "compose.composed": sum.Composed,
	} {
		if got := rec.Counter(name); got != want {
			t.Errorf("counter %s = %d, want the estimators' total %d", name, got, want)
		}
	}
}

// TestNewPartitionConcurrent: partitioning one compiled program from several
// goroutines while others read its instruction table must only read the
// shared module — the partition hash prints it, and re-finalizing would
// rebuild the table in place under the readers. `make race` runs this under
// the race detector.
func TestNewPartitionConcurrent(t *testing.T) {
	b := prog.Build("pathfinder")
	want := NewPartition(b.Prog)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := NewPartition(b.Prog); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent partition diverged: hash %s vs %s", got.Hash, want.Hash)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for id, in := range b.Module.Instrs() {
					if in.ID != id {
						t.Errorf("instruction table entry %d holds ID %d", id, in.ID)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
