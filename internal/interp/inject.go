package interp

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// Injector is the fault-injection trial engine: one machine that runs
// trials one after another, reusing its memory, register slab and frame
// stack. Every trial runs in two phases. It restores its start state (a
// golden checkpoint, a batch fork, or the program entry on the fused code
// arrays) and runs the generic engine up to and through the injection, so
// the fault keeps its exact per-dynamic-instruction semantics, including
// targets inside fused pairs. Once the fault has fired, the trial finishes
// on the lean fast-path loop: no plan state is consulted downstream of the
// injection, and both loops keep the same dyn clock, trap points and budget
// order, so results are bit-identical to Run or RunFrom of the same plan.
// Against a checkpointed golden the tail also ends early once the machine
// is back in the golden's exact state at one of its snapshots (converge.go).
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
// injection point and counts the resume in c's usage counters, like
// RunWithCheckpoints; with no such snapshot (or c nil) it starts at the
// program entry. A tail that re-joins the golden at one of c's snapshots
// ends there with the golden's end state, counted in c's usage counters.
// rng resolves the plan's deferred fault bits. The Result's Output is the
// machine's buffer, valid only until its next trial.
func (m *Injector) Trial(args []uint64, c *Checkpoints, plan *fault.Plan, rng *xrand.RNG, maxDyn int64) *Result {
	return m.run(c, c.startFor(m.e.p, plan), args, plan, rng, maxDyn)
}

// run executes one trial from snapshot s, or from the program entry with
// args when s is nil, and compares its tail with the golden checkpoints c
// (nil: none). s must precede the plan's injection point.
func (m *Injector) run(c *Checkpoints, s *Snapshot, args []uint64, plan *fault.Plan, rng *xrand.RNG, maxDyn int64) *Result {
	e := m.e
	// resetFast leaves memory as it is: every word below memTop is either
	// restored from s, which copies every snapshot page, or claimed by an
	// alloca that zeroes it.
	e.resetFast(maxDyn)
	e.plan, e.rng = plan, rng
	e.injected, e.injID, e.injBit, e.occSeen = false, 0, 0, 0
	if s != nil {
		s.restoreInto(e)
		if plan.Mode == fault.ModeStatic {
			e.occSeen = s.counts[plan.StaticID]
		}
	} else {
		entry := e.p.funcs[e.p.entry]
		if len(args) != entry.nParams {
			panic(fmt.Sprintf("interp: entry %s takes %d args, got %d", entry.name, entry.nParams, len(args)))
		}
		e.fusedExec = true
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
		e.armConvergence(c)
		ret, _ = e.runFast(e.fusedExec)
	}
	return e.finish(ret)
}

// injectBoundary is the trial machine's boundary hook: once the fault has
// fired the run suspends so the trial can switch to the fast-path tail.
// Until then (a static plan whose conservative stop undershot the actual
// occurrence) the stop is re-armed from the remaining occurrence distance,
// which the target's at-most-one-per-dyn execution rate makes safe.
func (e *exec) injectBoundary() bool {
	if e.injected {
		return false
	}
	if pl := e.plan; pl.Mode == fault.ModeStatic {
		e.nextCkpt = e.dyn + (pl.Occurrence - e.occSeen)
	} else {
		// A dynamic target at or below the current dyn can no longer fire.
		e.nextCkpt = math.MaxInt64
	}
	return true
}
