// Package ga implements the genetic search engine of PEPPA-X (§2.4, §4.2.4):
// real-valued genomes (program input vectors), roulette-wheel selection,
// a mutation operator that perturbs one argument by ±10 % of its value, and
// a crossover operator that swaps one argument between two parents. The
// paper uses mutation rate 0.4 and crossover rate 0.05 following Haupt's
// heuristics [24].
package ga

import (
	"fmt"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Paper-specified recombination rates (§4.2.4).
const (
	DefaultMutationRate  = 0.4
	DefaultCrossoverRate = 0.05
	// DefaultPopulation is the number of candidates per generation.
	DefaultPopulation = 16
	// mutationSpan is the relative perturbation range: ±10 % of the
	// current argument value.
	mutationSpan = 0.10
)

// Disabled is the sentinel for MutationRate / CrossoverRate that switches
// the operator off entirely: the engine performs zero operator RNG draws,
// so the breeding stream is exactly the selection-only stream. It exists
// because the zero value of Config must keep meaning "use the paper
// default" for existing callers, while operator ablations need an explicit
// "off" that is not silently replaced with 0.4 / 0.05.
const Disabled = -1

// Genome is a candidate solution: one value per program argument.
type Genome []float64

// Clone copies the genome.
func (g Genome) Clone() Genome { return append(Genome(nil), g...) }

// Individual pairs a genome with its fitness.
type Individual struct {
	Genome  Genome
	Fitness float64
}

// Config parameterizes the engine.
type Config struct {
	// PopSize is the population size (default 16).
	PopSize int
	// MutationRate is the per-offspring probability of mutation. The zero
	// value selects the paper default (0.4); Disabled (-1) switches the
	// operator off with zero RNG draws; other negative values are invalid.
	MutationRate float64
	// CrossoverRate is the per-offspring probability of crossover. The zero
	// value selects the paper default (0.05); Disabled (-1) switches the
	// operator off with zero RNG draws; other negative values are invalid.
	CrossoverRate float64
	// Clamp forces a genome back into the valid input space after
	// recombination; required.
	Clamp func(Genome)
	// Fitness evaluates a genome; required. Higher is better and values
	// must be non-negative for roulette selection.
	Fitness func(Genome) float64
	// Seed provides initial genomes; the engine draws the initial
	// population from it (cycling if shorter than PopSize); required
	// non-empty.
	Seed []Genome
	// Workers fans fitness evaluation across goroutines. Values <= 1
	// evaluate serially (the default); opting in requires a Fitness that is
	// safe for concurrent calls. Selection and recombination always run
	// serially on the engine's RNG, and each generation's offspring are
	// bred before any is evaluated, so results are bit-identical for every
	// worker count.
	Workers int
	// Trace, when non-nil, receives one "ga.gen" telemetry event per
	// generation (best/mean fitness, cumulative evaluations and operator
	// applications) plus ga.breed.ns / ga.eval.ns wall-time counters.
	// Every traced quantity is schedule-independent, so tracing preserves
	// the worker-count equivalence of the trace.
	Trace *telemetry.Stream
}

// Engine runs the genetic search.
type Engine struct {
	cfg Config
	rng *xrand.RNG

	pop  []Individual
	best Individual
	gen  int

	// Evaluations counts fitness calls — each is charged as one program
	// execution in PEPPA-X (the cheap per-input evaluation of Table 6),
	// though core.FitnessEval runs each distinct input only once.
	Evaluations int
	// Mutations and Crossovers count operator applications. With a rate of
	// Disabled the corresponding counter must stay 0 — the regression
	// surface for operator ablations.
	Mutations  int
	Crossovers int
}

// New validates the configuration and builds the initial population.
func New(cfg Config, rng *xrand.RNG) (*Engine, error) {
	if cfg.Fitness == nil || cfg.Clamp == nil {
		return nil, fmt.Errorf("ga: Fitness and Clamp are required")
	}
	if len(cfg.Seed) == 0 {
		return nil, fmt.Errorf("ga: Seed population is required")
	}
	if cfg.PopSize <= 1 {
		cfg.PopSize = DefaultPopulation
	}
	var err error
	if cfg.MutationRate, err = resolveRate("MutationRate", cfg.MutationRate, DefaultMutationRate); err != nil {
		return nil, err
	}
	if cfg.CrossoverRate, err = resolveRate("CrossoverRate", cfg.CrossoverRate, DefaultCrossoverRate); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, rng: rng}
	genomes := make([]Genome, cfg.PopSize)
	for i := range genomes {
		g := cfg.Seed[i%len(cfg.Seed)].Clone()
		cfg.Clamp(g)
		genomes[i] = g
	}
	e.pop = e.evalAll(genomes)
	for i, ind := range e.pop {
		if i == 0 || ind.Fitness > e.best.Fitness {
			e.best = Individual{Genome: ind.Genome.Clone(), Fitness: ind.Fitness}
		}
	}
	if s := e.cfg.Trace; s != nil {
		s.Emit("ga.init",
			telemetry.F("pop", cfg.PopSize),
			telemetry.F("best", e.best.Fitness),
			telemetry.F("evals", e.Evaluations))
	}
	return e, nil
}

// resolveRate maps a configured operator rate onto the effective one: the
// zero value keeps selecting the paper default, Disabled maps to an exact
// 0 (the breeding loop then skips the operator's RNG draw entirely), and
// any other out-of-range value is a configuration error rather than a
// silent substitution.
func resolveRate(name string, rate, def float64) (float64, error) {
	switch {
	case rate == Disabled:
		return 0, nil
	case rate == 0:
		return def, nil
	case rate < 0 || rate > 1:
		return 0, fmt.Errorf("ga: %s %v outside [0,1] (use ga.Disabled to switch the operator off)", name, rate)
	default:
		return rate, nil
	}
}

// evalAll evaluates a batch of genomes, fanning across cfg.Workers
// goroutines when enabled. Results are returned in input order, so the
// fold over them is schedule-independent.
func (e *Engine) evalAll(genomes []Genome) []Individual {
	workers := e.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	out := make([]Individual, len(genomes))
	parallel.ForEach(workers, len(genomes), func(i int) {
		out[i] = Individual{Genome: genomes[i], Fitness: e.cfg.Fitness(genomes[i])}
	})
	e.Evaluations += len(genomes)
	return out
}

// Best returns the best individual seen so far.
func (e *Engine) Best() Individual {
	return Individual{Genome: e.best.Genome.Clone(), Fitness: e.best.Fitness}
}

// Generation returns the number of completed generations.
func (e *Engine) Generation() int { return e.gen }

// Population returns a snapshot of the current population.
func (e *Engine) Population() []Individual {
	out := make([]Individual, len(e.pop))
	for i, ind := range e.pop {
		out[i] = Individual{Genome: ind.Genome.Clone(), Fitness: ind.Fitness}
	}
	return out
}

// rouletteIndex samples an index proportional to fitness (§4.2.4 adopts
// roulette selection). Degenerate all-zero populations fall back to uniform.
func (e *Engine) rouletteIndex() int {
	var total float64
	for _, ind := range e.pop {
		if ind.Fitness > 0 {
			total += ind.Fitness
		}
	}
	if total <= 0 {
		return e.rng.Intn(len(e.pop))
	}
	target := e.rng.Float64() * total
	for i, ind := range e.pop {
		if ind.Fitness > 0 {
			target -= ind.Fitness
			if target < 0 {
				return i
			}
		}
	}
	return len(e.pop) - 1
}

// mutate perturbs one argument by a uniform value in ±10 % of its current
// magnitude (§4.2.4). Arguments whose value is 0 get a small absolute kick
// so mutation cannot stall.
func (e *Engine) mutate(g Genome) {
	e.Mutations++
	i := e.rng.Intn(len(g))
	span := g[i] * mutationSpan
	if span < 0 {
		span = -span
	}
	if span == 0 {
		span = mutationSpan
	}
	g[i] += e.rng.Range(-span, span)
}

// crossover swaps one argument value between two genomes (§4.2.4).
func (e *Engine) crossover(a, b Genome) {
	e.Crossovers++
	i := e.rng.Intn(len(a))
	a[i], b[i] = b[i], a[i]
}

// Step runs one generation: it breeds a full offspring population via
// roulette selection plus mutation/crossover, evaluates it — concurrently
// when cfg.Workers allows — and replaces the old population with the
// offspring plus the elite best-so-far individual.
//
// Breeding happens entirely before evaluation: selection draws only on the
// previous generation's fitness, so deferring evaluation changes neither
// the RNG stream nor the offspring, and the evaluation batch can fan out.
func (e *Engine) Step() {
	traced := e.cfg.Trace != nil
	var breedStart time.Time
	if traced {
		breedStart = time.Now()
	}

	// Elitism: carry the best individual forward unchanged so the bound
	// estimate never regresses.
	elite := Individual{Genome: e.best.Genome.Clone(), Fitness: e.best.Fitness}

	// A rate of 0 only arises from the Disabled sentinel (resolveRate maps
	// everything else away from 0), and a disabled operator must not
	// consume RNG draws — skipping the Bool call keeps the selection
	// stream identical to an operator-free engine.
	offspring := make([]Genome, 0, len(e.pop)-1)
	for len(offspring) < len(e.pop)-1 {
		parent := e.pop[e.rouletteIndex()].Genome.Clone()
		if e.cfg.CrossoverRate > 0 && e.rng.Bool(e.cfg.CrossoverRate) && len(e.pop) > 1 {
			other := e.pop[e.rouletteIndex()].Genome.Clone()
			e.crossover(parent, other)
			// The second offspring of the swap joins too if there is room.
			if len(offspring) < len(e.pop)-2 {
				e.cfg.Clamp(other)
				offspring = append(offspring, other)
			}
		}
		if e.cfg.MutationRate > 0 && e.rng.Bool(e.cfg.MutationRate) {
			e.mutate(parent)
		}
		e.cfg.Clamp(parent)
		offspring = append(offspring, parent)
	}

	var evalStart time.Time
	if traced {
		e.cfg.Trace.Count("ga.breed.ns", time.Since(breedStart).Nanoseconds())
		evalStart = time.Now()
	}
	next := make([]Individual, 0, len(e.pop))
	next = append(next, elite)
	for _, ind := range e.evalAll(offspring) {
		next = append(next, ind)
		if ind.Fitness > e.best.Fitness {
			e.best = Individual{Genome: ind.Genome.Clone(), Fitness: ind.Fitness}
		}
	}
	e.pop = next
	e.gen++
	if traced {
		s := e.cfg.Trace
		s.Count("ga.eval.ns", time.Since(evalStart).Nanoseconds())
		var sum float64
		for _, ind := range e.pop {
			sum += ind.Fitness
		}
		s.Emit("ga.gen",
			telemetry.F("gen", e.gen),
			telemetry.F("best", e.best.Fitness),
			telemetry.F("mean", sum/float64(len(e.pop))),
			telemetry.F("evals", e.Evaluations),
			telemetry.F("mutations", e.Mutations),
			telemetry.F("crossovers", e.Crossovers))
	}
}

// Run executes n generations and returns the best individual.
func (e *Engine) Run(n int) Individual {
	for i := 0; i < n; i++ {
		e.Step()
	}
	return e.Best()
}
