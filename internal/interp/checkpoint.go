package interp

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/fault"
)

// Golden-prefix checkpointing. A fault-injection trial is byte-identical to
// the golden run until its injection point — the interpreter consumes no
// randomness before the flip and reads no state the golden run did not
// produce — so a campaign of T trials on a D-instruction program wastes
// ~T·D/2 steps replaying the shared prefix. The golden run instead records
// a Snapshot of the complete machine state at the first basic-block entry
// at least `interval` dynamic instructions after the previous one (the
// first: after the start); each trial then resumes from the latest
// snapshot strictly before its injection point and produces bit-identical
// results (outcome, injected ID/bit, dynamic count, output) at a fraction
// of the work. Block entries are also where a trial's fast-path tail
// compares itself with the snapshots (converge.go).
//
// Memory is captured copy-on-write at page granularity: the checkpointed
// run tracks written pages, and each snapshot shares every untouched page
// with its predecessor, so snapshot cost scales with the write set rather
// than the footprint.

// pageWords is the snapshot page granularity (4 KiB of word-addressed
// memory); pageShift is its log2.
const (
	pageWords = 512
	pageShift = 9
)

func pageCount(words int64) int64 { return (words + pageWords - 1) >> pageShift }

// markDirty flags the pages covering [lo, hi) as written since the last
// snapshot.
func (e *exec) markDirty(lo, hi int64) {
	if hi <= lo {
		return
	}
	for pg := lo >> pageShift; pg <= (hi-1)>>pageShift; pg++ {
		e.dirty[pg] = true
	}
}

// Snapshot is a resumable copy of the machine state at one dynamic
// instruction boundary of a fault-free run.
type Snapshot struct {
	dyn      int64
	memTop   int64
	pages    [][]uint64 // mem[i*pageWords:...]; clean pages shared with the previous snapshot
	frames   []frame
	regs     []uint64 // regSlab[:slabTop]
	slabTop  int
	output   []OutVal
	counts   []int64 // per-static-instruction execution counts (profiled runs)
	detected bool
	// fused records which code array the frame pcs index — restoring the
	// snapshot resumes on that engine (the two arrays use different pc
	// coordinate spaces, but produce bit-identical results).
	fused bool
}

// Dyn returns the dynamic instruction count at which the snapshot was taken.
func (s *Snapshot) Dyn() int64 { return s.dyn }

// Checkpoints is the ordered snapshot sequence of one golden run, how the
// run ended, and usage counters. The counters are updated atomically so
// parallel campaign workers can share one Checkpoints; everything they
// count is derived from the dyn clock, never from scheduling, so they are
// identical for any worker count.
type Checkpoints struct {
	prog     *Program
	interval int64
	snaps    []*Snapshot
	end      *goldenEnd // nil when the run did not return

	restored     atomic.Int64
	scratch      atomic.Int64
	skipped      atomic.Int64
	converged    atomic.Int64
	convergedDyn atomic.Int64

	batches       atomic.Int64
	batchedTrials atomic.Int64
	trunkDyn      atomic.Int64
}

// Interval returns the snapshot spacing in dynamic instructions.
func (c *Checkpoints) Interval() int64 { return c.interval }

// Snapshots returns the number of recorded snapshots.
func (c *Checkpoints) Snapshots() int { return len(c.snaps) }

// CheckpointStats aggregates checkpoint usage. All values derive from the
// dynamic-instruction clock, so they are schedule-independent and safe to
// emit into deterministic telemetry traces.
type CheckpointStats struct {
	// Snapshots is the number of checkpoints recorded on the golden run;
	// Interval their spacing (when aggregating across goldens, the first
	// non-zero interval is kept).
	Snapshots int
	Interval  int64
	// Restored counts trials resumed from a snapshot; Scratch counts trials
	// that ran from dynamic instruction 0 because no snapshot preceded
	// their injection point.
	Restored int64
	Scratch  int64
	// SkippedDyn is the total count of golden-prefix dynamic instructions
	// the resumed trials did not have to re-execute.
	SkippedDyn int64
	// Converged counts trials whose tail re-joined the golden run's exact
	// state at a snapshot and ended there; ConvergedDyn is the tail dynamic
	// instructions they did not execute. Their Results still report the
	// full run's DynCount.
	Converged    int64
	ConvergedDyn int64
	// Batches counts lockstep BatchRun executions, BatchedTrials the trials
	// they covered, and TrunkDyn the dynamic instructions the shared batch
	// trunks executed — prefix work paid once per batch instead of once per
	// trial. All three derive from the dyn clock and the deterministic
	// trial grouping, never from scheduling.
	Batches       int64
	BatchedTrials int64
	TrunkDyn      int64
}

// Accumulate folds another sample into s, for aggregating usage across the
// many goldens of a search or baseline.
func (st *CheckpointStats) Accumulate(o CheckpointStats) {
	st.Snapshots += o.Snapshots
	if st.Interval == 0 {
		st.Interval = o.Interval
	}
	st.Restored += o.Restored
	st.Scratch += o.Scratch
	st.SkippedDyn += o.SkippedDyn
	st.Converged += o.Converged
	st.ConvergedDyn += o.ConvergedDyn
	st.Batches += o.Batches
	st.BatchedTrials += o.BatchedTrials
	st.TrunkDyn += o.TrunkDyn
}

// Stats returns the current usage counters.
func (c *Checkpoints) Stats() CheckpointStats {
	if c == nil {
		return CheckpointStats{}
	}
	return CheckpointStats{
		Snapshots:     len(c.snaps),
		Interval:      c.interval,
		Restored:      c.restored.Load(),
		Scratch:       c.scratch.Load(),
		SkippedDyn:    c.skipped.Load(),
		Converged:     c.converged.Load(),
		ConvergedDyn:  c.convergedDyn.Load(),
		Batches:       c.batches.Load(),
		BatchedTrials: c.batchedTrials.Load(),
		TrunkDyn:      c.trunkDyn.Load(),
	}
}

// NoteBatch folds one BatchRun's usage into the counters: forked trials
// (and fallback trials that still resumed from the base snapshot) count as
// restored with their skipped prefix, base-less fallbacks as scratch.
// Safe for concurrent batch workers; everything recorded derives from the
// deterministic trial grouping, so the totals are worker-count independent.
func (c *Checkpoints) NoteBatch(st BatchStats) {
	if c == nil {
		return
	}
	c.batches.Add(1)
	c.batchedTrials.Add(int64(st.Trials))
	c.trunkDyn.Add(st.TrunkDyn)
	c.restored.Add(int64(st.Forked + st.FallbackRestored))
	c.scratch.Add(int64(st.Fallback - st.FallbackRestored))
	c.skipped.Add(st.ForkSkipped + st.FallbackSkipped)
}

// AutoCheckpointInterval picks the snapshot spacing for a golden run of
// dynCount dynamic instructions: ~64 snapshots across the run, but never
// denser than every 64 instructions so snapshot cost stays well below the
// replay cost it saves.
func AutoCheckpointInterval(dynCount int64) int64 {
	const targetSnapshots = 64
	k := dynCount / targetSnapshots
	if k < 64 {
		k = 64
	}
	return k
}

// atBlockEntry reports whether pc is the first instruction of its basic
// block in the code array the machine runs.
func (e *exec) atBlockEntry(cf *compiledFunc, pc int32) bool {
	if e.fusedExec {
		return cf.fusedStart[cf.fusedOf[pc]] == pc
	}
	return cf.blockStart[cf.blockOf[pc]] == pc
}

// takeSnapshot records the current machine state into e.ckpt and arms the
// next checkpoint. Called only at block entries of a fault-free
// checkpointed run, where fr.pc has been synced.
func (e *exec) takeSnapshot() {
	c := e.ckpt
	var prev *Snapshot
	if n := len(c.snaps); n > 0 {
		prev = c.snaps[n-1]
	}
	c.snaps = append(c.snaps, e.captureSnapshot(prev))
	e.nextCkpt = e.dyn + c.interval
}

// captureSnapshot copies the current machine state into a Snapshot whose
// clean pages are shared with prev (nil forces a full page copy), then
// clears the dirty-page map. Callable only at instruction boundaries where
// fr.pc has been synced, with e.dirty tracking every write since prev was
// captured (or, when the run itself started by restoring prev, since that
// restore — the pages are bit-identical either way). The batch executor
// chains trunk forks through here with each fork as the next prev.
func (e *exec) captureSnapshot(prev *Snapshot) *Snapshot {
	nPages := int(pageCount(e.memTop))
	pages := make([][]uint64, nPages)
	for i := range pages {
		if prev != nil && i < len(prev.pages) && !e.dirty[i] {
			// Untouched since the previous snapshot: share its copy. A page
			// that entered the address space after prev was taken is only
			// shareable because fresh memory is zero and every alloca/store
			// marks its pages dirty — unwritten growth matches prev's
			// zero padding.
			pages[i] = prev.pages[i]
			continue
		}
		pg := make([]uint64, pageWords)
		lo := i * pageWords
		hi := lo + pageWords
		if hi > len(e.mem) {
			hi = len(e.mem)
		}
		copy(pg, e.mem[lo:hi])
		pages[i] = pg
	}
	clear(e.dirty)
	s := &Snapshot{
		dyn:      e.dyn,
		memTop:   e.memTop,
		pages:    pages,
		frames:   append([]frame(nil), e.frames...),
		regs:     append([]uint64(nil), e.regSlab[:e.slabTop]...),
		slabTop:  e.slabTop,
		output:   append([]OutVal(nil), e.output...),
		detected: e.detected,
		fused:    e.fusedExec,
	}
	if e.counts != nil {
		s.counts = append([]int64(nil), e.counts...)
	}
	return s
}

// restoreInto rebuilds the snapshot's machine state inside a fresh (or
// batch-reset) exec, including the engine selection its pcs belong to.
func (s *Snapshot) restoreInto(e *exec) {
	e.fusedExec = s.fused
	e.dyn = s.dyn
	e.memTop = s.memTop
	if covered := int64(len(s.pages)) * pageWords; int64(len(e.mem)) < covered {
		e.growMem(covered)
	}
	for i, pg := range s.pages {
		copy(e.mem[int64(i)*pageWords:], pg)
	}
	if s.slabTop > len(e.regSlab) {
		e.growSlab(s.slabTop)
	}
	copy(e.regSlab[:s.slabTop], s.regs)
	e.slabTop = s.slabTop
	e.frames = append(e.frames[:0], s.frames...)
	e.output = append(e.output[:0], s.output...)
	e.detected = s.detected
	if e.profile {
		if s.counts == nil {
			panic("interp: profiled resume from a snapshot of an unprofiled run")
		}
		copy(e.counts, s.counts)
	}
	// The golden prefix is taint-free (taint exists only downstream of an
	// injection), so a fresh exec's zeroed shadows are already correct;
	// only their sizes must track memory.
	if e.taintMem != nil && len(e.taintMem) < len(e.mem) {
		t := make([]bool, len(e.mem))
		copy(t, e.taintMem)
		e.taintMem = t
	}
}

// ForPlan returns the latest snapshot whose state still precedes the plan's
// injection point — the resume point from which the trial is bit-identical
// to a from-scratch run — or nil when no snapshot qualifies (injection
// before the first checkpoint, or no plan).
func (c *Checkpoints) ForPlan(plan *fault.Plan) *Snapshot {
	if c == nil || plan == nil || len(c.snaps) == 0 {
		return nil
	}
	var before func(s *Snapshot) bool
	switch plan.Mode {
	case fault.ModeDynamic:
		// The fault fires when dyn reaches TargetDyn, so a state with
		// dyn < TargetDyn is still on the shared prefix.
		before = func(s *Snapshot) bool { return s.dyn < plan.TargetDyn }
	case fault.ModeStatic:
		if plan.StaticID < 0 {
			return nil
		}
		// Still on the prefix while the target static instruction has
		// executed fewer than Occurrence times.
		before = func(s *Snapshot) bool {
			return s.counts != nil && plan.StaticID < len(s.counts) &&
				s.counts[plan.StaticID] < plan.Occurrence
		}
	default:
		return nil
	}
	// `before` is monotone non-increasing along the snapshot sequence, so
	// binary-search for the last qualifying snapshot.
	n := sort.Search(len(c.snaps), func(i int) bool { return !before(c.snaps[i]) })
	if n == 0 {
		return nil
	}
	return c.snaps[n-1]
}

// RunFrom executes the program from a snapshot's state instead of from the
// entry point, with the given options. The snapshot must come from a
// checkpointed run of the same program on the same input, and the fault
// plan (if any) must target a point at or after the snapshot — ForPlan
// selects such a snapshot. Static-mode plans require a profiled snapshot
// (the occurrence count of the target instruction is part of the machine
// state); profiled resumes likewise require profiled snapshots.
func RunFrom(p *Program, s *Snapshot, opts Options) *Result {
	if opts.CheckpointInterval > 0 {
		panic("interp: RunFrom cannot itself record checkpoints")
	}
	e := newExec(p, opts)
	s.restoreInto(e)
	if pl := opts.Plan; pl != nil && pl.Mode == fault.ModeStatic {
		if s.counts == nil {
			panic("interp: static-mode plan resumed from a snapshot of an unprofiled run")
		}
		e.occSeen = s.counts[pl.StaticID]
	}
	ret, _ := e.run()
	return e.finish(ret)
}

// RunWithCheckpoints is Run for fault-injection trials against a
// checkpointed golden run: the trial resumes from the nearest snapshot
// before its injection point when one exists, and falls back to a full run
// otherwise (including when c is nil). Results are bit-identical to
// Run(p, args, opts) — DynCount continues from the snapshot's dyn clock,
// the RNG is first consumed at injection, and output/memory/stack state
// below the snapshot is exactly the golden prefix's.
func RunWithCheckpoints(p *Program, args []uint64, c *Checkpoints, opts Options) *Result {
	if s := c.startFor(p, opts.Plan); s != nil {
		return RunFrom(p, s, opts)
	}
	return Run(p, args, opts)
}

// startFor returns the snapshot a trial of plan on p resumes from (nil: the
// program entry) and counts the choice in the usage counters. A nil c
// counts nothing.
func (c *Checkpoints) startFor(p *Program, plan *fault.Plan) *Snapshot {
	if c == nil {
		return nil
	}
	if c.prog != p {
		panic(fmt.Sprintf("interp: checkpoints belong to a different program (%p vs %p)", c.prog, p))
	}
	s := c.ForPlan(plan)
	if s == nil {
		c.scratch.Add(1)
		return nil
	}
	c.restored.Add(1)
	c.skipped.Add(s.dyn)
	return s
}
