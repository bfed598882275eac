package interp

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// Injector is the fault-injection trial engine: one machine that runs
// trials one after another, reusing its memory, register slab and frame
// stack. A trial runs in two phases. It restores its start state (a golden
// checkpoint, a batch fork, or the program entry) and runs the generic
// engine on the unfused code arrays up to and through the injection, so
// the fault keeps its exact per-dynamic-instruction semantics. At the
// first fused-slot start after the fault fires (at most one instruction
// later, the second half of a fused pair) it rewrites every frame's pc
// through compiledFunc.fusedPC and finishes on the fast loop over the
// fused arrays: no plan state is consulted downstream of the injection,
// and both loops keep the same dyn clock, trap points and budget order, so
// results are bit-identical to Run or RunFrom of the same plan. Against a
// checkpointed golden the tail also ends early once the machine is back in
// the golden's exact state at one of its snapshots (converge.go).
//
// An Injector is not safe for concurrent use; campaigns keep one per worker.
type Injector struct {
	e *exec
}

// NewInjector returns a trial machine for p with the default memory and
// call-depth limits.
func NewInjector(p *Program) *Injector { return newInjector(p, Options{}) }

// newInjector builds a machine with limits' MaxMemWords and MaxDepth.
func newInjector(p *Program, limits Options) *Injector {
	e := newExec(p, Options{MaxMemWords: limits.MaxMemWords, MaxDepth: limits.MaxDepth})
	e.blockCounts = make([]int64, p.CounterLen()) // runFast scratch; never read
	e.onBoundary = e.injectBoundary
	return &Injector{e: e}
}

// Trial runs one fault-injection trial of plan against a golden run on
// args, with maxDyn as its dynamic budget (0: the interpreter default). It
// resumes from the latest of the golden's checkpoints c that precedes the
// injection point, if that lies within the budget, and counts the resume
// in c's usage counters, like RunWithCheckpoints; otherwise (or with c
// nil) it starts at the program entry. A tail that re-joins the golden at
// one of c's snapshots ends there with the golden's end state, counted in
// c's usage counters. rng resolves the plan's deferred fault bits. The
// Result's Output is the machine's buffer, valid only until its next
// trial.
func (m *Injector) Trial(args []uint64, c *Checkpoints, plan *fault.Plan, rng *xrand.RNG, maxDyn int64) *Result {
	return m.run(c, c.startFor(m.e.p, plan, maxDyn), args, plan, rng, maxDyn)
}

// run executes one trial from snapshot s, or from the program entry with
// args when s is nil, and compares its tail with the golden checkpoints c
// (nil: none). s must precede the plan's injection point.
func (m *Injector) run(c *Checkpoints, s *Snapshot, args []uint64, plan *fault.Plan, rng *xrand.RNG, maxDyn int64) *Result {
	e := m.e
	// resetFast leaves memory as it is: every word below memTop is either
	// restored from s, which copies every word below its memTop, or claimed
	// by an alloca that zeroes it.
	e.resetFast(maxDyn)
	e.plan, e.rng = plan, rng
	e.injected, e.injID, e.injBit, e.occSeen = false, 0, 0, 0
	if s != nil {
		s.restoreInto(e)
		if plan.Mode == fault.ModeStatic {
			e.occSeen = s.counts.at(plan.StaticID)
		}
	} else {
		entry := e.p.funcs[e.p.entry]
		if len(args) != entry.nParams {
			panic(fmt.Sprintf("interp: entry %s takes %d args, got %d", entry.name, entry.nParams, len(args)))
		}
		e.pushFrame(e.p.entry)
		copy(e.regSlab[:len(args)], args)
	}
	if plan.Mode == fault.ModeStatic {
		e.nextCkpt = e.dyn + (plan.Occurrence - e.occSeen)
	} else {
		e.nextCkpt = plan.TargetDyn
	}
	ret, ok := e.run()
	if !ok && e.paused {
		e.paused = false
		e.toFused()
		e.armConvergence(c)
		ret, _ = e.runFast()
	}
	return e.finish(ret)
}

// toFused hands a machine the generic engine suspended over to the fast
// loop by rewriting every frame's pc, in place, into the fused code
// arrays. Every frame must sit at a fused-slot start: the top one does at
// a hand-off (injectBoundary), suspended callers at their calls, which are
// never fused.
func (e *exec) toFused() {
	for i := range e.frames {
		fr := &e.frames[i]
		fr.pc = e.p.funcs[fr.fi].fusedPC[fr.pc]
	}
}

// injectBoundary is the trial machine's boundary hook: once the fault has
// fired the run suspends at the next fused-slot start so the trial can
// switch to the fast-path tail; inside a fused pair it runs on one more
// instruction, keeping the stop armed. Until the fault fires (a static
// plan whose conservative stop undershot the actual occurrence) the stop
// is re-armed from the remaining occurrence distance, which the target's
// at-most-one-per-dyn execution rate makes safe.
func (e *exec) injectBoundary() bool {
	if e.injected {
		fr := &e.frames[len(e.frames)-1]
		return e.p.funcs[fr.fi].fusedPC[fr.pc] < 0
	}
	if pl := e.plan; pl.Mode == fault.ModeStatic {
		e.nextCkpt = e.dyn + (pl.Occurrence - e.occSeen)
	} else {
		// A dynamic target at or below the current dyn can no longer fire.
		e.nextCkpt = math.MaxInt64
	}
	return true
}
