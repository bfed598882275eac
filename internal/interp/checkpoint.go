package interp

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

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
// Snapshots are copy-on-write by comparison. A snapshot holds three arrays
// (memory below memTop, the live register slab and the per-instruction
// count vector) as chunkWords-word chunks, and each chunk equal to the
// previous snapshot's chunk at the same offset is that chunk, shared by
// pointer. Nothing marks writes, so the engines' store paths carry no
// bookkeeping, and a snapshot allocates only the chunks that changed.

// chunkWords is the copy-on-write granularity of a snapshot's arrays
// (DESIGN §8 has the measured alternatives); chunkShift is its log2.
const (
	chunkWords = 32
	chunkShift = 5
)

// chunks is a copy of an n-word array held as chunkWords-word chunks. Chunk
// i holds words [i*chunkWords, min((i+1)*chunkWords, n)) in its first
// slots; its slots past n are unspecified (a chunk shared with a longer
// predecessor keeps that array's words there). Chunks are never written
// once captured, so snapshots and concurrent trials share them freely.
type chunks[T uint64 | int64] struct {
	n  int
	cs []*[chunkWords]T
}

// window returns the words of src that chunk i covers.
func window[T uint64 | int64](src []T, i int) []T {
	lo := i << chunkShift
	return src[lo:min(lo+chunkWords, len(src))]
}

// captureChunks copies src, sharing every chunk whose words equal prev's
// chunk at the same offset, and adds the bytes of its chunk table and of
// the chunks it allocates to *bytes.
func captureChunks[T uint64 | int64](src []T, prev chunks[T], bytes *int64) chunks[T] {
	a := chunks[T]{n: len(src), cs: make([]*[chunkWords]T, (len(src)+chunkWords-1)>>chunkShift)}
	*bytes += int64(len(a.cs)) * int64(unsafe.Sizeof((*[chunkWords]T)(nil)))
	for i := range a.cs {
		w := window(src, i)
		if i < len(prev.cs) && slices.Equal(prev.cs[i][:len(w)], w) {
			a.cs[i] = prev.cs[i]
			continue
		}
		a.cs[i] = new([chunkWords]T)
		copy(a.cs[i][:], w)
		*bytes += int64(unsafe.Sizeof(*a.cs[i]))
	}
	return a
}

// restore copies the array into dst[:n] and leaves the rest of dst as it
// is.
func (a chunks[T]) restore(dst []T) {
	for i, c := range a.cs {
		copy(dst[i<<chunkShift:a.n], c[:])
	}
}

// equal reports whether src, which has n words, holds the array.
func (a chunks[T]) equal(src []T) bool {
	for i, c := range a.cs {
		if w := window(src, i); !slices.Equal(c[:len(w)], w) {
			return false
		}
	}
	return true
}

// at returns word i.
func (a chunks[T]) at(i int) T { return a.cs[i>>chunkShift][i&(chunkWords-1)] }

// Snapshot is a resumable copy of the machine state at one dynamic
// instruction boundary of a fault-free run. Its frame pcs index the unfused
// code arrays, which the generic engine resumes from it; a trial's
// fast-loop tail compares its machine with the snapshot through
// compiledFunc.fusedPC (converge.go). Its memory, registers and counts
// share every chunk that equals the previous snapshot's.
type Snapshot struct {
	dyn      int64
	mem      chunks[uint64] // mem[:memTop]; nothing above memTop is read before an alloca zeroes it
	regs     chunks[uint64] // regSlab[:slabTop]
	counts   chunks[int64]  // per-static-instruction execution counts; no chunk table unless profiled
	frames   []frame
	output   []OutVal
	detected bool
}

// profiled reports whether s holds execution counts.
func (s *Snapshot) profiled() bool { return s.counts.cs != nil }

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
	bytes    int64      // what snaps hold, each shared chunk once
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
	// Bytes is the memory the snapshots hold, each chunk shared between
	// consecutive snapshots counted once. It is a property of the golden
	// run alone, like Snapshots.
	Bytes int64
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
	st.Bytes += o.Bytes
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
		Bytes:         c.bytes,
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
// block in the unfused code array.
func atBlockEntry(cf *compiledFunc, pc int32) bool {
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
	s, bytes := e.captureSnapshot(prev)
	c.snaps = append(c.snaps, s)
	c.bytes += bytes
	e.nextCkpt = e.dyn + c.interval
}

// captureSnapshot copies the current machine state into a Snapshot that
// shares every chunk equal to prev's at the same offset (prev nil: none),
// and returns it with the bytes it holds that prev does not share.
// Callable only at instruction boundaries where fr.pc has been synced. The
// batch executor chains trunk forks through here with each fork as the
// next prev.
func (e *exec) captureSnapshot(prev *Snapshot) (*Snapshot, int64) {
	if prev == nil {
		prev = &Snapshot{}
	}
	s := &Snapshot{
		dyn:      e.dyn,
		frames:   append([]frame(nil), e.frames...),
		output:   append([]OutVal(nil), e.output...),
		detected: e.detected,
	}
	bytes := int64(unsafe.Sizeof(*s)) + int64(len(s.frames))*int64(unsafe.Sizeof(frame{})) +
		int64(len(s.output))*int64(unsafe.Sizeof(OutVal{}))
	s.mem = captureChunks(e.mem[:e.memTop], prev.mem, &bytes)
	s.regs = captureChunks(e.regSlab[:e.slabTop], prev.regs, &bytes)
	if e.counts != nil {
		s.counts = captureChunks(e.counts, prev.counts, &bytes)
	}
	return s, bytes
}

// restoreInto rebuilds the snapshot's machine state inside a fresh (or
// reset) exec. It writes no memory at or above the snapshot's memTop: what
// a reused machine left there is never read before an alloca zeroes it.
// Memory that must grow first keeps none of its old words, which the
// restore overwrites. The golden prefix is taint-free (taint exists only
// downstream of an injection), so a fresh exec's zeroed shadows are
// already correct, and growMem keeps their size. A restored register slab
// holds each frame's constant slots, as every snapshot does.
func (s *Snapshot) restoreInto(e *exec) {
	e.dyn = s.dyn
	e.memTop = int64(s.mem.n)
	if int64(len(e.mem)) < e.memTop {
		e.growMem(0, e.memTop)
	}
	s.mem.restore(e.mem)
	if s.regs.n > len(e.regSlab) {
		e.growSlab(s.regs.n)
	}
	s.regs.restore(e.regSlab)
	e.slabTop = s.regs.n
	e.frames = append(e.frames[:0], s.frames...)
	e.output = append(e.output[:0], s.output...)
	e.detected = s.detected
	if e.profile {
		if !s.profiled() {
			panic("interp: profiled resume from a snapshot of an unprofiled run")
		}
		s.counts.restore(e.counts)
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
			return s.profiled() && plan.StaticID < s.counts.n &&
				s.counts.at(plan.StaticID) < plan.Occurrence
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
		if !s.profiled() {
			panic("interp: static-mode plan resumed from a snapshot of an unprofiled run")
		}
		e.occSeen = s.counts.at(pl.StaticID)
	}
	ret, _ := e.run()
	return e.finish(ret)
}

// RunWithCheckpoints is Run for fault-injection trials against a
// checkpointed golden run: the trial resumes from the nearest snapshot
// before its injection point when one exists within opts.MaxDyn, and falls
// back to a full run otherwise (including when c is nil). Results are bit-identical to
// Run(p, args, opts) — DynCount continues from the snapshot's dyn clock,
// the RNG is first consumed at injection, and output/memory/stack state
// below the snapshot is exactly the golden prefix's.
func RunWithCheckpoints(p *Program, args []uint64, c *Checkpoints, opts Options) *Result {
	if s := c.startFor(p, opts.Plan, opts.MaxDyn); s != nil {
		return RunFrom(p, s, opts)
	}
	return Run(p, args, opts)
}

// startFor returns the snapshot a trial of plan on p with dyn budget maxDyn
// (<= 0: the default) resumes from (nil: the program entry) and counts the
// choice in the usage counters. A snapshot past the budget does not
// qualify: a run from the entry exceeds the budget before it gets there. A
// nil c counts nothing.
func (c *Checkpoints) startFor(p *Program, plan *fault.Plan, maxDyn int64) *Snapshot {
	if c == nil {
		return nil
	}
	if c.prog != p {
		panic(fmt.Sprintf("interp: checkpoints belong to a different program (%p vs %p)", c.prog, p))
	}
	s := c.ForPlan(plan)
	if s == nil || maxDyn > 0 && s.dyn > maxDyn {
		c.scratch.Add(1)
		return nil
	}
	c.restored.Add(1)
	c.skipped.Add(s.dyn)
	return s
}
