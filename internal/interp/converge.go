package interp

import (
	"math"
	"slices"
	"sort"
)

// Converged trials. Many faults are masked: some instructions after the
// injection the trial's machine is again in exactly the golden run's state.
// From there the trial is the golden run, because after its injection a
// trial reads no plan state and draws no random bits (every fault model
// draws at plan time or at injection). It will end as the golden ended. A
// trial's fast-path tail therefore compares its machine with the golden's
// snapshots, which sit at block entries, and on an exact match finishes
// with the golden's end state instead of executing the rest. Every Result
// field stays bit-identical to a full run.

// goldenEnd is how a checkpointed golden run returned, and the limits it
// ran under.
type goldenEnd struct {
	dyn      int64
	ret      uint64
	output   []OutVal
	detected bool
	maxMem   int64
	maxDep   int
}

// convergence is one trial tail's place in the golden's snapshots: the
// next snapshot at or after the tail's current dyn. Every snapshot the tail
// reaches is compared; a comparison costs far less than the tail it can
// save (DESIGN §19).
type convergence struct {
	// at is the dyn of snaps[next]; the fast loop compares dyn with it at
	// every block entry. math.MaxInt64 when no snapshot is left to compare.
	at   int64
	c    *Checkpoints
	next int
}

// armConvergence points a trial tail that starts at the current dyn at the
// first snapshot at or after it. It arms nothing unless c recorded how the
// golden returned, the golden's end fits the trial's dyn budget and its
// memory and depth limits (limits only ever turn a run into a trap, so
// larger ones cannot change a run that did not trap).
func (e *exec) armConvergence(c *Checkpoints) {
	e.conv = convergence{at: math.MaxInt64}
	if c == nil || c.end == nil || len(c.snaps) == 0 ||
		c.end.dyn > e.maxDyn || c.end.maxMem > e.maxMem || c.end.maxDep > e.maxDep {
		return
	}
	if i := sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].dyn >= e.dyn }); i < len(c.snaps) {
		e.conv = convergence{at: c.snaps[i].dyn, c: c, next: i}
	}
}

// converge runs at a block entry of a trial tail, with the top frame's pc
// and e.dyn synced, once e.dyn has reached the next snapshot. On an exact
// match it moves the machine to the golden's end state, counts the trial
// in c's usage counters and returns true; the run then returns the
// golden's return value, c.end.ret. Otherwise it moves on to the first
// snapshot past e.dyn and returns false.
func (e *exec) converge() bool {
	cv := &e.conv
	snaps := cv.c.snaps
	for ; cv.next < len(snaps); cv.next++ {
		s := snaps[cv.next]
		if s.dyn > e.dyn {
			cv.at = s.dyn
			return false
		}
		if s.dyn == e.dyn && matches(e, s) {
			end := cv.c.end
			cv.c.converged.Add(1)
			cv.c.convergedDyn.Add(end.dyn - e.dyn)
			e.dyn = end.dyn
			e.output = append(e.output, end.output[len(e.output):]...)
			e.detected = end.detected
			cv.at = math.MaxInt64
			return true
		}
	}
	cv.at = math.MaxInt64
	return false
}

// matches reports whether the machine is in snapshot s's state, taken at
// the same dyn: memTop, frames, the live register slab, output, detection
// flag and memory below memTop — everything a later instruction can
// observe, and everything s holds apart from counts, which a trial tail
// does not keep. Memory above memTop is never read before an alloca zeroes
// it. The machine runs the fused arrays and s holds unfused pcs, so each
// snapshot frame's pc is translated through fusedPC; snapshot frames sit
// at block entries and calls, which always start a fused slot. The cheap
// fields go first, and the arrays compare chunk by chunk.
func matches(e *exec, s *Snapshot) bool {
	if e.memTop != int64(s.mem.n) || e.slabTop != s.regs.n || len(e.frames) != len(s.frames) ||
		len(e.output) != len(s.output) || e.detected != s.detected {
		return false
	}
	for i, f := range s.frames {
		f.pc = e.p.funcs[f.fi].fusedPC[f.pc]
		if e.frames[i] != f {
			return false
		}
	}
	return s.regs.equal(e.regSlab[:e.slabTop]) && slices.Equal(e.output, s.output) &&
		s.mem.equal(e.mem[:e.memTop])
}
