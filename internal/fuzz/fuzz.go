// Package fuzz implements rare-branch-guided input search in the FairFuzz
// style (Lemieux & Sen, PAPERS.md): candidates are profiled runs whose
// block/edge hit counters feed a global rarity map (how many corpus entries
// cover each edge), mutation always starts from a corpus seed covering the
// rarest edge, and a per-seed mutation mask freezes the input positions
// whose mutation loses that edge — so the search keeps pressure on the
// branches random sampling reaches least often. The engine is generic over
// an Exec callback; the "fuzz" search strategy (internal/search) drives it
// over the GA's fitness objective.
package fuzz

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Exec profiles one candidate. It returns the candidate's score (higher is
// better), the profiled run's block/edge hit counters, and whether the run
// was valid; invalid candidates (ok false) join neither the corpus nor the
// rarity map. The counters slice is only read before the next Exec call, so
// callers may return a buffer they reuse.
type Exec func(input []float64) (score float64, counters []int64, ok bool)

// Options parameterizes a fuzzing run.
type Options struct {
	// Dim is the input vector length.
	Dim int
	// Clamp forces a candidate back into the valid input space, in place.
	Clamp func([]float64)
	// MutateAt perturbs position i of v in place. Nil uses the ±10 %
	// single-coordinate move shared with the other search strategies.
	MutateAt func(v []float64, i int, rng *xrand.RNG)
	// Seeds are the initial corpus candidates (at least one required).
	Seeds [][]float64
	// Budget bounds the total number of Exec calls, mask-building probes
	// included — the engine's evaluation accounting is honest, so budget
	// comparisons against unguided fuzzers are apples to apples.
	Budget int
	// Target, when positive, stops the run as soon as a valid candidate
	// scores at least this much.
	Target float64
	// CorpusCap bounds the corpus (default 64). Eviction prefers the
	// lowest-scoring entry that is not the sole coverer of any edge.
	CorpusCap int
}

// Result is the outcome of a fuzzing run.
type Result struct {
	// Best is the highest-scoring valid candidate (nil if none was valid);
	// BestScore its score.
	Best      []float64
	BestScore float64
	// Executions counts Exec calls: seeds, mutants and mask probes.
	Executions int
	// History records the best-so-far score after each execution.
	History []float64
	// TargetHit reports whether Target was reached.
	TargetHit bool
	// CorpusSize is the final corpus size; MasksBuilt the number of
	// mutation masks computed; FrozenPositions the total positions those
	// masks froze.
	CorpusSize      int
	MasksBuilt      int
	FrozenPositions int
}

const (
	// mutantsPerSeed is the number of mutants generated per seed selection
	// before re-consulting the rarity map.
	mutantsPerSeed   = 8
	defaultCorpusCap = 64
	// maxPursuitSteps bounds the greedy line search that extends a
	// score-improving single-coordinate mutation.
	maxPursuitSteps = 6
)

// entry is one corpus member: a valid input, the counter indices its run
// covered (with their AFL-style hit-count buckets), and its score.
type entry struct {
	id     int
	input  []float64
	cov    []int32
	bucket []int8
	score  float64
}

// covers reports whether the entry's run covered counter index c, returning
// the entry's hit-count bucket for it (0 if uncovered).
func (e *entry) covers(c int) (int8, bool) {
	for i, ci := range e.cov {
		if int(ci) == c {
			return e.bucket[i], true
		}
	}
	return 0, false
}

// numBuckets is the count of hit-count classes per counter.
const numBuckets = 9

// countBucket maps a counter value to its AFL-style hit-count class
// (1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+). Treating a known edge hit at a
// new order of magnitude as novel is what lets the corpus accumulate
// stepping stones across score plateaus: a candidate with the same coverage
// but a larger dynamic footprint is one coordinate move from regimes the
// current corpus cannot reach.
func countBucket(n int64) int8 {
	switch {
	case n <= 0:
		return 0
	case n <= 3:
		return int8(n)
	case n <= 7:
		return 4
	case n <= 15:
		return 5
	case n <= 31:
		return 6
	case n <= 127:
		return 7
	default:
		return 8
	}
}

type engine struct {
	opts   Options
	exec   Exec
	rng    *xrand.RNG
	res    *Result
	rarity []int  // rarity[c] = corpus entries covering counter c
	seen   []bool // seen[c*numBuckets+b] = some valid run hit counter c in bucket b
	corpus []*entry
	masks  map[[2]int][]bool // (entry id, rare edge) -> frozen positions
	nextID int

	// lastCounters/lastOK/lastScore expose the most recent evaluation's
	// profile to the mask builder (which must test whether a probe kept the
	// rare edge) and to the pursuit line search (which must test whether the
	// score kept climbing).
	lastCounters []int64
	lastOK       bool
	lastScore    float64
	// lastAdmitted reports whether the most recent evaluation entered the
	// corpus — a score-improving or bucket-novel candidate, i.e. a move in a
	// direction worth pursuing.
	lastAdmitted bool
}

// defaultMutateAt is the paper's ±10 % move operator pinned to one
// coordinate (the strategy-shared neighbourhood; see search.mutate).
func defaultMutateAt(v []float64, i int, rng *xrand.RNG) {
	span := v[i] * 0.10
	if span < 0 {
		span = -span
	}
	if span == 0 {
		span = 0.10
	}
	v[i] += rng.Range(-span, span)
}

// Run fuzzes until the budget is spent or the target score is reached.
func Run(opts Options, exec Exec, rng *xrand.RNG) (*Result, error) {
	if opts.Dim <= 0 || opts.Clamp == nil || exec == nil || len(opts.Seeds) == 0 {
		return nil, fmt.Errorf("fuzz: options require Dim, Clamp, an Exec and Seeds")
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("fuzz: Budget must be positive")
	}
	if opts.MutateAt == nil {
		opts.MutateAt = defaultMutateAt
	}
	if opts.CorpusCap <= 0 {
		opts.CorpusCap = defaultCorpusCap
	}
	e := &engine{
		opts:  opts,
		exec:  exec,
		rng:   rng,
		res:   &Result{},
		masks: make(map[[2]int][]bool),
	}
	for _, s := range opts.Seeds {
		if e.done() {
			break
		}
		e.evaluate(cloneVec(s), math.Inf(-1))
	}
	for !e.done() {
		rare := e.rarestEdge()
		if rare < 0 {
			// No valid corpus yet: mutate seeds unmasked until something
			// survives.
			cand := cloneVec(opts.Seeds[rng.Intn(len(opts.Seeds))])
			opts.MutateAt(cand, rng.Intn(opts.Dim), rng)
			e.evaluate(cand, math.Inf(-1))
			continue
		}
		seed := e.seedFor(rare)
		mask := e.maskFor(seed, rare)
		for t := 0; t < mutantsPerSeed && !e.done(); t++ {
			cand := cloneVec(seed.input)
			if t%4 == 3 {
				// Havoc mutant: re-draw every free position at once. The
				// multi-coordinate move reaches regimes single-position
				// mutation cannot, and with an all-free mask it degrades to
				// blind sampling — so the guided search never does worse
				// than the naive fuzzer when the corpus has no coverage
				// frontier to exploit.
				for i := 0; i < opts.Dim; i++ {
					if !mask[i] {
						opts.MutateAt(cand, i, rng)
					}
				}
				e.evaluate(cand, seed.score)
			} else {
				i := pickFree(mask, rng)
				opts.MutateAt(cand, i, rng)
				e.evaluate(cand, seed.score)
				if e.lastOK && (e.lastScore > seed.score || e.lastAdmitted) {
					e.pursue(cand, seed.input, i)
				}
			}
		}
	}
	e.res.CorpusSize = len(e.corpus)
	return e.res, nil
}

func (e *engine) done() bool {
	return e.res.Executions >= e.opts.Budget || e.res.TargetHit
}

// evaluate runs one candidate, updates the best/history bookkeeping and
// admits valid candidates to the corpus. parentScore is the score of the
// seed the candidate was mutated from (−Inf for seeds themselves), the
// admission bar for candidates that bring no new coverage.
func (e *engine) evaluate(cand []float64, parentScore float64) {
	e.opts.Clamp(cand)
	score, counters, ok := e.exec(cand)
	e.res.Executions++
	e.lastCounters, e.lastOK, e.lastScore = counters, ok, score
	e.lastAdmitted = false
	if ok {
		if e.res.Best == nil || score > e.res.BestScore {
			e.res.Best = cloneVec(cand)
			e.res.BestScore = score
		}
		if e.opts.Target > 0 && score >= e.opts.Target {
			e.res.TargetHit = true
		}
		e.admit(cand, counters, score, parentScore)
	}
	e.res.History = append(e.res.History, e.res.BestScore)
}

// admit adds a valid candidate to the corpus when it is novel — it covers a
// previously uncovered edge, or hits a known edge in a previously unseen
// hit-count bucket — or when it improves on its parent seed's score (the
// hill-climbing ingredient: rare-edge seeds are re-selected by score, so
// better-scoring coverers steer subsequent mutation), evicting under
// pressure. Bucket novelty is what carries the corpus across score
// plateaus: an equal-scoring candidate with a larger dynamic footprint is
// kept as a stepping stone toward regimes the current corpus cannot reach.
func (e *engine) admit(cand []float64, counters []int64, score, parentScore float64) {
	if e.rarity == nil {
		e.rarity = make([]int, len(counters))
		e.seen = make([]bool, len(counters)*numBuckets)
	}
	cov := make([]int32, 0, 16)
	buckets := make([]int8, 0, 16)
	novel := false
	for c, n := range counters {
		if n <= 0 {
			continue
		}
		bk := countBucket(n)
		cov = append(cov, int32(c))
		buckets = append(buckets, bk)
		if !e.seen[c*numBuckets+int(bk)] {
			e.seen[c*numBuckets+int(bk)] = true
			novel = true
		}
	}
	if len(cov) == 0 {
		return
	}
	if !novel && score <= parentScore {
		return
	}
	if len(e.corpus) >= e.opts.CorpusCap {
		e.evict()
	}
	en := &entry{id: e.nextID, input: cloneVec(cand), cov: cov, bucket: buckets, score: score}
	e.nextID++
	e.corpus = append(e.corpus, en)
	for _, c := range cov {
		e.rarity[c]++
	}
	e.lastAdmitted = true
}

// evict removes the lowest-scoring entry that is not the sole coverer of
// any edge, falling back to the lowest-scoring entry overall.
func (e *engine) evict() {
	victim, fallback := -1, -1
	for i, en := range e.corpus {
		if fallback < 0 || en.score < e.corpus[fallback].score {
			fallback = i
		}
		sole := false
		for _, c := range en.cov {
			if e.rarity[c] == 1 {
				sole = true
				break
			}
		}
		if sole {
			continue
		}
		if victim < 0 || en.score < e.corpus[victim].score {
			victim = i
		}
	}
	if victim < 0 {
		victim = fallback
	}
	en := e.corpus[victim]
	for _, c := range en.cov {
		e.rarity[c]--
	}
	e.corpus = append(e.corpus[:victim], e.corpus[victim+1:]...)
}

// rarestEdge returns the covered counter index with the fewest corpus
// coverers (ties break low), or -1 when the corpus is empty.
func (e *engine) rarestEdge() int {
	rare, hits := -1, 0
	for c, n := range e.rarity {
		if n > 0 && (rare < 0 || n < hits) {
			rare, hits = c, n
		}
	}
	return rare
}

// seedFor returns the highest-scoring corpus entry covering the edge,
// breaking score ties toward the entry hitting it in the highest count
// bucket (the most robust coverer, and — for workload-scaling edges — the
// furthest stepping stone). Entries tied on both score and bucket are chosen
// uniformly at random (reservoir sampling), so successive rounds anchor
// mutation at different stepping stones instead of replaying the earliest
// coverer forever — the corpus-cycling ingredient of AFL-style fuzzers.
// rarestEdge guarantees a coverer exists.
func (e *engine) seedFor(edge int) *entry {
	var best *entry
	var bestBk int8
	ties := 0
	for _, en := range e.corpus {
		bk, ok := en.covers(edge)
		if !ok {
			continue
		}
		switch {
		case best == nil || en.score > best.score || (en.score == best.score && bk > bestBk):
			best, bestBk = en, bk
			ties = 1
		case en.score == best.score && bk == bestBk:
			ties++
			if e.rng.Intn(ties) == 0 {
				best = en
			}
		}
	}
	return best
}

// pursue extends a score-improving single-coordinate mutation into a greedy
// line search: the same coordinate is pushed repeatedly by the same delta for
// as long as the score does not drop (equal scores keep going — staircase
// objectives are flat between thresholds). Score gradients along one input
// axis usually mean a workload- or regime-controlling argument, and a single
// random redraw almost never lands at the far end of its range in one move;
// riding the detected direction is what crosses widely separated thresholds
// within budget. Pursuit evaluations draw from the same budget and feed the
// corpus like any other candidate.
func (e *engine) pursue(cand, seedInput []float64, i int) {
	delta := cand[i] - seedInput[i]
	if delta == 0 {
		return
	}
	lineBest := e.lastScore
	cur := cand
	for k := 0; k < maxPursuitSteps && !e.done(); k++ {
		next := cloneVec(cur)
		next[i] += delta
		e.opts.Clamp(next)
		if next[i] == cur[i] {
			return // clamped against the range boundary: no further to go
		}
		e.evaluate(next, lineBest)
		if !e.lastOK || e.lastScore < lineBest {
			return
		}
		lineBest = e.lastScore
		cur = next
	}
}

// maskFor returns (building once) the FairFuzz mutation mask of a seed with
// respect to its rare edge: for each input position, the seed is re-run with
// only that position mutated, and positions whose mutation loses the edge
// are frozen. Probe runs draw from the same budget and feed the corpus like
// any other candidate. If the budget ends mid-build, unprobed positions stay
// free; if every position freezes, the mask is ignored (a fully frozen seed
// could never move).
func (e *engine) maskFor(seed *entry, edge int) []bool {
	key := [2]int{seed.id, edge}
	if m, ok := e.masks[key]; ok {
		return m
	}
	frozen := make([]bool, e.opts.Dim)
	for i := 0; i < e.opts.Dim && !e.done(); i++ {
		// Two independent probes per position: a single draw of a coarse
		// move operator can lose the edge by chance (e.g. landing low in a
		// range whose high side keeps it), and freezing on one bad draw
		// would lock exactly the positions that could still climb. Only a
		// position that loses the edge on both probes is frozen.
		lost := 0
		for p := 0; p < 2 && !e.done(); p++ {
			cand := cloneVec(seed.input)
			e.opts.MutateAt(cand, i, e.rng)
			e.evaluate(cand, seed.score)
			if !(e.lastOK && edge < len(e.lastCounters) && e.lastCounters[edge] > 0) {
				lost++
			}
			// A probe is a single-coordinate mutation like any other, so a
			// score-improving or corpus-admitted probe seeds a pursuit line
			// search too (after the lost-edge check above — pursuit
			// overwrites lastCounters).
			if e.lastOK && (e.lastScore > seed.score || e.lastAdmitted) {
				e.pursue(cand, seed.input, i)
			}
		}
		frozen[i] = lost == 2
	}
	allFrozen := true
	for _, f := range frozen {
		if !f {
			allFrozen = false
		} else {
			e.res.FrozenPositions++
		}
	}
	if allFrozen {
		frozen = make([]bool, e.opts.Dim)
	}
	e.res.MasksBuilt++
	e.masks[key] = frozen
	return frozen
}

// pickFree draws a uniformly random unfrozen position.
func pickFree(frozen []bool, rng *xrand.RNG) int {
	free := 0
	for _, f := range frozen {
		if !f {
			free++
		}
	}
	if free == 0 {
		return rng.Intn(len(frozen))
	}
	k := rng.Intn(free)
	for i, f := range frozen {
		if !f {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return len(frozen) - 1
}

func cloneVec(v []float64) []float64 { return append([]float64(nil), v...) }
