package experiments

import (
	"fmt"
	"sort"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/prog"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Suite caches the expensive shared artifacts — PEPPA-X searches, baseline
// runs, the random-input study and the per-instruction study — so that
// experiments that view the same data (Figure 1 and Table 2; Figures 5, 7
// and 8) compute it once.
//
// Every cache is a compute-once-per-key memo, so experiments may run
// concurrently (see RunAllStructured): the first experiment to need an
// artifact computes it while later ones block on the same entry, and a full
// RunAll still computes each per-benchmark artifact exactly once. Each
// artifact's computation owns a private RNG stream derived from
// (Cfg.Seed, purpose, benchmark), so results do not depend on which
// experiment ran first or on how many ran at once.
type Suite struct {
	Cfg Config

	benches   parallel.Memo[*prog.Benchmark]
	searches  parallel.Memo[*core.Result]
	baselines parallel.Memo[*core.BaselineResult]
	studies   parallel.Memo[*RandomStudy]
	perInstr  parallel.Memo[*PerInstrStudy]
	// composeCaches holds one compositional profile cache per benchmark
	// (Cfg.Compose), shared by that benchmark's search and baseline so
	// profiles measured by one are reused by the other.
	composeCaches parallel.Memo[*compose.Cache]
}

// NewSuite validates the config and returns an empty suite.
func NewSuite(cfg Config) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Suite{Cfg: cfg}, nil
}

// BenchNames returns the configured benchmark set in Table 1 order.
func (s *Suite) BenchNames() []string {
	if len(s.Cfg.Benches) > 0 {
		return append([]string(nil), s.Cfg.Benches...)
	}
	return prog.Names()
}

// Bench returns (building once) the named benchmark.
func (s *Suite) Bench(name string) *prog.Benchmark {
	b, _ := s.benches.Get(name, func() (*prog.Benchmark, error) {
		return prog.Build(name), nil
	})
	return b
}

// composeCache returns (building once) the benchmark's shared profile
// cache, or nil when the suite is not in compose mode.
func (s *Suite) composeCache(name string) *compose.Cache {
	if !s.Cfg.Compose {
		return nil
	}
	c, _ := s.composeCaches.Get(name, func() (*compose.Cache, error) {
		return compose.NewCache(0), nil
	})
	return c
}

// strategies resolves the configured strategy subset against search.All()
// (nil/empty = every strategy). NewSuite validated the names.
func (s *Suite) strategies() []search.Strategy {
	all := search.All()
	if len(s.Cfg.Strategies) == 0 {
		return all
	}
	byName := make(map[string]search.Strategy, len(all))
	for _, st := range all {
		byName[st.Name()] = st
	}
	var out []search.Strategy
	for _, name := range s.Cfg.Strategies {
		out = append(out, byName[name])
	}
	return out
}

// rng derives a deterministic per-purpose stream.
func (s *Suite) rng(purpose string, bench string) *xrand.RNG {
	h := s.Cfg.Seed
	for _, c := range purpose + "/" + bench {
		h = h*1099511628211 + uint64(c)
	}
	return xrand.New(h)
}

// oneWorker configures an FI campaign an experiment runs itself: seeded by
// one draw off the experiment's stream, on one worker because the suite
// already runs its experiments concurrently.
func oneWorker(rng *xrand.RNG) campaign.ParallelOptions {
	return campaign.ParallelOptions{Workers: 1, Seed: rng.Uint64()}
}

// Search runs (once) the full PEPPA-X search for a benchmark, with the
// configured checkpoints — the shared artifact behind Figures 5, 7, 8 and 9.
func (s *Suite) Search(name string) (*core.Result, error) {
	return s.searches.Get(name, func() (*core.Result, error) {
		opts := core.DefaultOptions()
		opts.Generations = s.Cfg.SearchGenerations
		opts.PopSize = s.Cfg.SearchPop
		opts.TrialsPerRep = s.Cfg.TrialsPerRep
		opts.FinalTrials = s.Cfg.OverallTrials
		opts.Checkpoints = append([]int(nil), s.Cfg.Checkpoints...)
		opts.FIOptions = s.Cfg.FIOptions
		opts.Trace = s.Cfg.Recorder.Stream("search/" + name)
		opts.ComposeCache = s.composeCache(name)
		r, err := core.Search(s.Bench(name), opts, s.rng("search", name))
		if err != nil {
			return nil, fmt.Errorf("experiments: search %s: %w", name, err)
		}
		return r, nil
	})
}

// maxBaselineBudget computes the largest baseline budget any figure needs:
// the PEPPA-X pipeline cost at the last checkpoint, and baseline5x times the
// cost at the 200-generation cut-off (or the middle checkpoint when 200 is
// not in the set).
func (s *Suite) maxBaselineBudget(r *core.Result) int64 {
	last := s.Cfg.Checkpoints[len(s.Cfg.Checkpoints)-1]
	budget := r.PipelineDynAt(last)
	if b5 := baseline5x * r.PipelineDynAt(s.cutoffGen()); b5 > budget {
		budget = b5
	}
	return budget
}

// cutoffGen is the generation used for the Figure 7 comparison — 200 in the
// paper; the middle checkpoint when the configured set has no 200.
func (s *Suite) cutoffGen() int {
	for _, cp := range s.Cfg.Checkpoints {
		if cp == 200 {
			return cp
		}
	}
	return s.Cfg.Checkpoints[len(s.Cfg.Checkpoints)/2]
}

// Baseline runs (once) the random-search baseline for a benchmark, to the
// largest budget any experiment needs; callers slice its history by budget.
func (s *Suite) Baseline(name string) (*core.BaselineResult, error) {
	return s.baselines.Get(name, func() (*core.BaselineResult, error) {
		r, err := s.Search(name)
		if err != nil {
			return nil, err
		}
		return core.RandomSearch(s.Bench(name), core.BaselineOptions{
			TrialsPerInput: s.Cfg.OverallTrials,
			DynBudget:      s.maxBaselineBudget(r),
			Trace:          s.Cfg.Recorder.Stream("baseline/" + name),
			// The baseline memo-depends on Search above, so the shared
			// cache is already warm with this benchmark's profiles and the
			// reuse order is deterministic.
			ComposeCache: s.composeCache(name),
			FIOptions:    s.Cfg.FIOptions,
		}, s.rng("baseline", name)), nil
	})
}

// BaselineBestWithin returns the baseline's best SDC probability achieved
// within the given dynamic-instruction budget. The baseline always gets at
// least its first evaluated input (the paper's baseline reports whatever
// its first FI campaign measured even if it overruns a tiny budget).
func BaselineBestWithin(b *core.BaselineResult, budget int64) float64 {
	best := 0.0
	for i, pt := range b.History {
		if i > 0 && pt.DynSpent > budget {
			break
		}
		best = pt.BestSDC
	}
	return best
}

// RandomStudy is the §3 initial study's raw data for one benchmark: the
// reference input plus RandomInputs random inputs, each with a full FI
// campaign and its static-instruction coverage.
type RandomStudy struct {
	Bench  string
	Ref    StudyPoint
	Points []StudyPoint
}

// StudyPoint is one input's measurement.
type StudyPoint struct {
	Input    []float64
	SDC      float64
	Counts   campaign.Counts
	Coverage float64
	DynCount int64
}

// SDCs returns the random points' SDC probabilities.
func (rs *RandomStudy) SDCs() []float64 {
	out := make([]float64, len(rs.Points))
	for i, p := range rs.Points {
		out[i] = p.SDC
	}
	return out
}

// Coverages returns the random points' coverages.
func (rs *RandomStudy) Coverages() []float64 {
	out := make([]float64, len(rs.Points))
	for i, p := range rs.Points {
		out[i] = p.Coverage
	}
	return out
}

// Study runs (once) the random-input FI study for a benchmark. Inputs are
// drawn serially from the study stream; each input's FI campaign fans out
// over the configured workers with a serially drawn campaign seed, so the
// study is identical for every worker count.
func (s *Suite) Study(name string) (*RandomStudy, error) {
	return s.studies.Get(name, func() (*RandomStudy, error) {
		b := s.Bench(name)
		rng := s.rng("study", name)
		tr := s.Cfg.Recorder.Stream("study/" + name)
		st := &RandomStudy{Bench: name}

		measure := func(in []float64, label string) (StudyPoint, error) {
			g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(in), b.MaxDyn, campaign.CheckpointAuto)
			if err != nil {
				return StudyPoint{}, err
			}
			c := campaign.OverallParallel(b.Prog, g, s.Cfg.OverallTrials, campaign.ParallelOptions{
				Workers: s.Cfg.Workers,
				Seed:    rng.Uint64(),
			})
			tr.Advance(g.DynCount + c.DynInstrs)
			tr.Emit("study.point", append([]telemetry.Field{
				telemetry.F("input", label),
				telemetry.F("sdc", c.SDCProbability()),
				telemetry.F("coverage", g.Coverage()),
			}, c.Fields()...)...)
			return StudyPoint{
				Input: in, SDC: c.SDCProbability(), Counts: c,
				Coverage: g.Coverage(), DynCount: g.DynCount,
			}, nil
		}

		ref, err := measure(b.RefInput(), "ref")
		if err != nil {
			return nil, fmt.Errorf("experiments: %s reference input: %w", name, err)
		}
		st.Ref = ref
		for len(st.Points) < s.Cfg.RandomInputs {
			pt, err := measure(b.RandomInput(rng), fmt.Sprint(len(st.Points)))
			if err != nil {
				continue // invalid input, redraw (§3.1.2)
			}
			st.Points = append(st.Points, pt)
		}
		return st, nil
	})
}

// PerInstrStudy holds per-instruction SDC probability vectors for several
// inputs of one benchmark (Figure 2 / Table 3 data).
type PerInstrStudy struct {
	Bench   string
	Inputs  [][]float64
	Vectors [][]float64 // Vectors[k][id] = SDC prob of instr id under input k
}

// PerInstr runs (once) the per-instruction study for a benchmark. Moderate
// workloads (scaled inputs) keep the all-instruction campaigns tractable;
// the instruction list fans out over the configured workers, each
// instruction's trials on a stream derived from its ID.
func (s *Suite) PerInstr(name string) (*PerInstrStudy, error) {
	return s.perInstr.Get(name, func() (*PerInstrStudy, error) {
		b := s.Bench(name)
		rng := s.rng("perinstr", name)
		tr := s.Cfg.Recorder.Stream("perinstr/" + name)
		st := &PerInstrStudy{Bench: name}
		ids := campaign.AllInstructionIDs(b.Prog)
		for len(st.Vectors) < s.Cfg.PerInstrInputs {
			in := b.RandomInputScaled(rng, 0.25)
			g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(in), b.MaxDyn, campaign.CheckpointAuto)
			if err != nil {
				continue
			}
			res := campaign.PerInstructionParallel(b.Prog, g, ids, s.Cfg.PerInstrTrials, campaign.ParallelOptions{
				Workers: s.Cfg.Workers,
				Seed:    rng.Uint64(),
			})
			var trials int
			var dyn int64
			for _, r := range res {
				trials += r.Counts.Trials
				dyn += r.Counts.DynInstrs
			}
			tr.Advance(g.DynCount + dyn)
			tr.Emit("perinstr.input",
				telemetry.F("input", len(st.Inputs)),
				telemetry.F("instrs", len(ids)),
				telemetry.F("trials", trials),
				telemetry.F("coverage", g.Coverage()),
				telemetry.F("dyn", dyn))
			st.Inputs = append(st.Inputs, in)
			st.Vectors = append(st.Vectors, campaign.PerInstructionVector(b.Prog.NumInstrs(), res))
		}
		return st, nil
	})
}

// MemoStats reports each artifact cache's hit/miss/eviction counts and
// current size. Hits and misses are schedule-independent: every key is
// computed exactly once (one miss) no matter which experiment asks first,
// and the hit count is the total number of Gets minus the distinct keys.
func (s *Suite) MemoStats() map[string]parallel.MemoStats {
	m := map[string]parallel.MemoStats{
		"benches":   s.benches.Stats(),
		"searches":  s.searches.Stats(),
		"baselines": s.baselines.Stats(),
		"studies":   s.studies.Stats(),
		"perinstr":  s.perInstr.Stats(),
	}
	if s.Cfg.Compose {
		m["compose"] = s.composeCaches.Stats()
	}
	return m
}

// EmitMemoStats writes the cache tallies to the configured Recorder: one
// "memo" event per cache (name order) on the "suite/memo" stream, plus
// memo.<cache>.{hits,misses,evictions,len} counters for the metrics
// summary (peppax_memo_* on /metrics). Call it once, after the experiments
// have run and before closing the recorder.
func (s *Suite) EmitMemoStats() {
	if s.Cfg.Recorder == nil {
		return
	}
	stats := s.MemoStats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	tr := s.Cfg.Recorder.Stream("suite/memo")
	for _, n := range names {
		st := stats[n]
		tr.Emit("memo",
			telemetry.F("cache", n),
			telemetry.F("hits", st.Hits),
			telemetry.F("misses", st.Misses),
			telemetry.F("evictions", st.Evictions),
			telemetry.F("len", st.Len))
		s.Cfg.Recorder.Count("memo."+n+".hits", st.Hits)
		s.Cfg.Recorder.Count("memo."+n+".misses", st.Misses)
		s.Cfg.Recorder.Count("memo."+n+".evictions", st.Evictions)
		s.Cfg.Recorder.Count("memo."+n+".len", int64(st.Len))
	}
}

// sortedCheckpoints returns the configured checkpoints in ascending order.
func (s *Suite) sortedCheckpoints() []int {
	cps := append([]int(nil), s.Cfg.Checkpoints...)
	sort.Ints(cps)
	return cps
}
