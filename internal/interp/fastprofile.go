package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// This file implements the fast loop: the profiling path behind GA fitness
// evaluation and the small-input fuzzer's coverage checks, and the tail of
// every fault-injection trial. It is a dispatch loop over the fused
// superinstruction code array, stripped of fault injection, taint tracking
// and checkpointing, counting executions per basic block (one counter bump
// per block entry, Ball–Larus style) instead of per static instruction. It
// comes in two parts: fastLoop, which runs every slot that needs no
// function call and makes none, and its driver runFast, which runs the
// rest (calls, returns, allocas, divisions, fptosi) and records aborts.
// Observable behaviour — outputs, return value, dynamic instruction count,
// traps, budget exhaustion and the reconstructed per-instruction count
// vector — is bit-identical to a profiled interp.Run, the reference engine
// over the unfused arrays.
//
// Counter model. The program has one int64 counter per basic block followed
// by one per phi-carrying CFG edge (Program.CounterLen() total). A block's
// counter is bumped every time control enters it: once at function entry
// and once per taken jump. An edge's counter is bumped after all of the
// edge's phi moves complete. A non-phi instruction's count is then exactly
// its block's counter; a phi's count is the sum of its incoming edges'
// counters (phis execute on edges — a function entered by call runs no edge
// moves, so entry-block phis correctly count zero from the entry bump).
//
// Aborts (trap or budget) leave blocks partially executed, so the plain
// block-derived counts overshoot on the aborting path. fixupAbort repairs
// this: for every live frame it retracts the current block's entry bump and
// records the block's actually-executed prefix in e.overlay (+1 per listed
// id); abort appends additional overlay entries for work completed inside
// the aborting slot (finished phi moves, the first half of a fused pair).

// Profiler runs profiled executions of one Program with zero steady-state
// allocation: the machine state (memory, register slabs, counters, output
// buffer) is owned by the Profiler and reused across Run calls. A Profiler
// is not safe for concurrent use; pool one per worker.
type Profiler struct {
	p       *Program
	e       *exec
	run     ProfileRun
	scratch []int64
}

// NewProfiler returns a Profiler for p.
func NewProfiler(p *Program) *Profiler {
	pr := &Profiler{p: p, e: newExec(p, Options{})}
	pr.e.blockCounts = make([]int64, p.CounterLen())
	return pr
}

// Program returns the compiled program this profiler executes.
func (pr *Profiler) Program() *Program { return pr.p }

// Run executes the entry function with the given argument slots and a
// dynamic-instruction budget (0 means the interpreter default). The
// returned ProfileRun — including its Output and count state — is owned by
// the Profiler and valid only until the next Run call; copy what must
// outlive it.
func (pr *Profiler) Run(args []uint64, maxDyn int64) *ProfileRun {
	r := &pr.run
	*r = ProfileRun{prog: pr.p, prof: pr}
	e := pr.e
	entry := pr.p.funcs[pr.p.entry]
	if len(args) != entry.nParams {
		panic(fmt.Sprintf("interp: entry %s takes %d args, got %d", entry.name, entry.nParams, len(args)))
	}
	e.resetFast(maxDyn)
	e.pushFrame(pr.p.entry)
	copy(e.regSlab[:len(args)], args)
	e.blockCounts[entry.blockBase]++
	ret, ok := e.runFast()
	if !ok {
		e.fixupAbort()
	}
	r.Ret = ret
	r.Output = e.output
	r.DynCount = e.dyn
	r.Trap = e.trap
	r.BudgetExceeded = e.budget
	r.DetectedFlag = e.detected
	r.counters = e.blockCounts
	r.overlay = e.overlay
	return r
}

// ProfileRun is the outcome of one profiled execution. The exported fields
// mirror interp.Result; the count state stays in block/edge form until a
// caller asks for per-instruction data.
type ProfileRun struct {
	Ret            uint64
	Output         []OutVal // borrowed from the Profiler; valid until its next Run
	DynCount       int64
	Trap           *Trap
	BudgetExceeded bool
	DetectedFlag   bool

	prog     *Program
	prof     *Profiler
	counters []int64 // borrowed block/edge counter space
	overlay  []int32 // borrowed abort-overlay id list
}

// Program returns the compiled program the run executed.
func (r *ProfileRun) Program() *Program { return r.prog }

// Failed reports whether the run is unusable for fitness or coverage:
// it trapped, exhausted its dynamic budget, executed no injectable
// instructions, or raised sdc_detect — the same fault-free failures
// NewGolden rejects (§3.1.2).
func (r *ProfileRun) Failed() bool {
	return r.Trap != nil || r.BudgetExceeded || r.DynCount == 0 || r.DetectedFlag
}

// Fitness evaluates Σ_c S_c·C_c / N_total over the block/edge counter
// space, where counterScores is a Program.CounterScores fold of the
// per-instruction score vector. No per-instruction loop, no InstrCounts
// materialization. Failed runs score zero (a candidate that crashes, hangs
// or does nothing exposes no SDC surface). The counter-order summation is
// the canonical float association, so fitness is independent of how the
// counters were reached.
func (r *ProfileRun) Fitness(counterScores []float64) float64 {
	if r.Failed() {
		return 0
	}
	var acc float64
	for c, n := range r.counters {
		if n > 0 {
			acc += counterScores[c] * float64(n)
		}
	}
	return acc / float64(r.DynCount)
}

// InstrCounts materializes the per-static-instruction execution count
// vector into dst (grown/reset as needed), reconstructing it from block and
// edge counters plus the abort overlay. The result is bit-identical to a
// profiled interp.Run's Result.InstrCounts.
func (r *ProfileRun) InstrCounts(dst []int64) []int64 {
	n := r.prog.numInstrs
	if cap(dst) < n {
		dst = make([]int64, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	for id := 0; id < n; id++ {
		if b := r.prog.instrBlock[id]; b >= 0 {
			dst[id] = r.counters[b]
		} else {
			var s int64
			for _, ec := range r.prog.phiEdges[id] {
				s += r.counters[ec]
			}
			dst[id] = s
		}
	}
	for _, id := range r.overlay {
		dst[id]++
	}
	return dst
}

// Counters copies the run's block/edge hit counters into dst (grown as
// needed) and returns it. Unlike the borrowed internal state, the copy stays
// valid across the profiler's subsequent runs. Counter indices are stable
// per program (Program.CounterLen()), so cross-run comparisons — e.g. the
// edge-rarity map of the rare-branch fuzzer — are well-defined. The abort
// overlay (partial counts of the block in flight when a run aborts) is not
// folded in, which is fine for coverage-style uses because aborted runs are
// discarded as Failed.
func (r *ProfileRun) Counters(dst []int64) []int64 {
	if cap(dst) < len(r.counters) {
		dst = make([]int64, len(r.counters))
	} else {
		dst = dst[:len(r.counters)]
	}
	copy(dst, r.counters)
	return dst
}

// CoveredInstrs counts static instructions executed at least once.
func (r *ProfileRun) CoveredInstrs() int {
	r.prof.scratch = r.InstrCounts(r.prof.scratch)
	n := 0
	for _, c := range r.prof.scratch {
		if c > 0 {
			n++
		}
	}
	return n
}

// Coverage returns the fraction of injectable static instructions executed
// at least once — the small-input fuzzer's selection criterion.
func (r *ProfileRun) Coverage() float64 {
	if r.prog.numInstrs == 0 {
		return 0
	}
	return float64(r.CoveredInstrs()) / float64(r.prog.numInstrs)
}

// resetFast rewinds the machine state for the next fast-path run. Memory
// contents are deliberately NOT cleared: word 0 is never written (checkAddr
// rejects address 0), loads and stores reach only addresses below memTop,
// and every word below memTop was either written by a snapshot restore or
// zeroed by the OpAlloca that claimed it. A restore writes nothing above
// its memTop, so what an earlier run left there stays unobservable through
// alloca zeroing alone.
func (e *exec) resetFast(maxDyn int64) {
	e.memTop = 1
	e.dyn = 0
	e.maxDyn = maxDyn
	if e.maxDyn <= 0 {
		e.maxDyn = defaultMaxDyn
	}
	e.frames = e.frames[:0]
	e.slabTop = 0
	e.output = e.output[:0]
	e.trap = nil
	e.budget = false
	e.detected = false
	clear(e.blockCounts)
	e.overlay = e.overlay[:0]
}

// fixupAbort repairs the block counters after an aborted fast-path run: for
// every live frame, the current block's entry bump is retracted and the
// ids of the block's executed prefix (everything strictly before the
// frame's pc — for suspended frames that excludes the pending call, which
// only counts at return) are appended to the overlay. Combined with the
// overlays abort records for partial slots, the reconstructed counts
// match a profiled Run's exactly.
func (e *exec) fixupAbort() {
	for i := range e.frames {
		fr := &e.frames[i]
		cf := e.p.funcs[fr.fi]
		lb := cf.fusedOf[fr.pc]
		e.blockCounts[cf.blockBase+lb]--
		for p := cf.fusedStart[lb]; p < fr.pc; p++ {
			in := &cf.fused[p]
			if in.id >= 0 {
				e.overlay = append(e.overlay, in.id)
			}
			if in.id2 >= 0 {
				e.overlay = append(e.overlay, in.id2)
			}
		}
	}
}

// exitReason says why the fast loop returned to its driver.
type exitReason uint8

const (
	exitSlot   exitReason = iota // the slot at pc is a call, return, alloca, division or fptosi
	exitBlock                    // pc is a block entry at or past conv.at
	exitBudget                   // the slot at pc crossed the dyn budget
	exitMoves                    // the phi moves of the branch at pc would cross the budget
	exitNull                     // a load or store at pc addressed word 0
	exitOOB                      // a load or store at pc addressed memTop or above

	// exitHalf marks an abort in the second half of the fused slot at pc:
	// its first half ran and counted.
	exitHalf exitReason = 0x80
)

// addrFault is the exit of a load or store whose address failed the check.
func addrFault(addr uint64) exitReason {
	if addr == 0 {
		return exitNull
	}
	return exitOOB
}

// runFast is the fast loop's driver. It runs fastLoop from the top frame's
// synced pc and handles each exit: a slot that needs a function call runs
// here, through step, as the generic engine runs it, and then the loop
// re-enters; a block entry is compared with the golden's next snapshot; an
// abort is recorded. It returns when the entry frame returns, the run
// aborts, or a trial tail re-joins the golden, which ends it with the
// golden's return value.
func (e *exec) runFast() (uint64, bool) {
	for {
		r := e.fastLoop()
		fr := &e.frames[len(e.frames)-1]
		cf := e.p.funcs[fr.fi]
		in := &cf.fused[fr.pc]
		switch r {
		case exitSlot:
			depth := len(e.frames)
			rv, done, ok := e.step(in, true)
			if !ok || done {
				return rv, ok
			}
			if len(e.frames) <= depth {
				continue
			}
			// step pushed a callee: count its entry block, which is a
			// block entry like any other for the snapshot compare.
			e.blockCounts[e.p.funcs[e.frames[depth].fi].blockBase]++
			if e.dyn < e.conv.at {
				continue
			}
		case exitBlock:
		default:
			e.abort(r, cf, in)
			return 0, false
		}
		if e.converge() {
			return e.conv.c.end.ret, true
		}
	}
}

// abort records the abort the fast loop reported at slot in of function
// cf: the budget flag or the trap, and in the overlay whatever the slot
// completed before it stopped, since no block or edge counter covers it.
func (e *exec) abort(r exitReason, cf *compiledFunc, in *inst) {
	if r&exitHalf != 0 {
		e.overlay = append(e.overlay, in.id)
	}
	switch r &^ exitHalf {
	case exitBudget:
		e.budget = true
	case exitNull:
		e.trap = &cf.traps[TrapNull]
	case exitOOB:
		e.trap = &cf.traps[TrapOOB]
	case exitMoves:
		// The branch took its edge; the first maxDyn-dyn moves complete
		// and count, and the next one crosses the budget. A fused
		// comparison ran and counted before them.
		fr := &e.frames[len(e.frames)-1]
		regs := e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
		moves := in.movesB
		switch {
		case in.op == ir.OpBr,
			in.op == ir.OpCondBr && regs[in.a]&1 != 0,
			in.op == opFusedCmpBr && regs[in.dst] != 0:
			moves = in.movesA
		}
		if in.op == opFusedCmpBr {
			e.overlay = append(e.overlay, in.id)
		}
		for _, mv := range moves[:e.maxDyn-e.dyn] {
			e.overlay = append(e.overlay, mv.phiID)
		}
		e.dyn = e.maxDyn + 1
		e.budget = true
	}
}

// fastLoop runs the top frame's fused code from its synced pc until a slot
// needs the driver, and returns why, with the frame's pc and e.dyn synced.
// It makes no function calls. Go's register ABI keeps no register live
// across a call, so one call anywhere in a loop makes the compiler store
// its live locals to the stack before every instruction and reload them
// after; `make test-fusion` fails if the loop's object code holds a CALL
// other than a bounds-check panic or stack growth (DESIGN §9). So the loop
// never leaves its frame (calls and returns are exits), keeps its state in
// locals, stores no pointer into e (a pointer store calls the write
// barrier) and leaves every trap, budget and overlay record to the driver.
// It evaluates each operator inline wherever a slot needs it, since a
// shared helper would be a call.
func (e *exec) fastLoop() exitReason {
	fr := &e.frames[len(e.frames)-1]
	code := e.p.funcs[fr.fi].fused
	regs := e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
	mem := e.mem[:e.memTop]
	// left counts the dynamic instructions the budget still allows, so
	// the dyn clock and the budget take one register: dyn is maxDyn-left.
	pc, left := fr.pc, e.maxDyn-e.dyn
	var (
		r               exitReason
		v               uint64
		moves           []move
		edge, blk, jump int32
	)
	for {
		in := &code[pc]
		switch in.op {
		case ir.OpAdd:
			v = ir.CanonInt(in.ty, regs[in.a]+regs[in.b])
		case ir.OpSub:
			v = ir.CanonInt(in.ty, regs[in.a]-regs[in.b])
		case ir.OpMul:
			v = ir.CanonInt(in.ty, regs[in.a]*regs[in.b])
		case ir.OpShl:
			v = ir.CanonInt(in.ty, regs[in.a]<<(regs[in.b]&uint64(in.ty.Bits()-1)))
		case ir.OpLShr:
			v = regs[in.a] >> (regs[in.b] & uint64(in.ty.Bits()-1)) // operands canonical: high bits clear
		case ir.OpAShr:
			v = ir.CanonInt(in.ty, uint64(ir.SignedValue(in.ty, regs[in.a])>>(regs[in.b]&uint64(in.ty.Bits()-1))))
		case ir.OpAnd:
			v = regs[in.a] & regs[in.b]
		case ir.OpOr:
			v = regs[in.a] | regs[in.b]
		case ir.OpXor:
			v = regs[in.a] ^ regs[in.b]
		case ir.OpFAdd:
			v = math.Float64bits(math.Float64frombits(regs[in.a]) + math.Float64frombits(regs[in.b]))
		case ir.OpFSub:
			v = math.Float64bits(math.Float64frombits(regs[in.a]) - math.Float64frombits(regs[in.b]))
		case ir.OpFMul:
			v = math.Float64bits(math.Float64frombits(regs[in.a]) * math.Float64frombits(regs[in.b]))
		case ir.OpFDiv:
			v = math.Float64bits(math.Float64frombits(regs[in.a]) / math.Float64frombits(regs[in.b]))
		case ir.OpGEP:
			v = regs[in.a] + regs[in.b]
		case ir.OpICmpEQ:
			v = b2u(regs[in.a] == regs[in.b])
		case ir.OpICmpNE:
			v = b2u(regs[in.a] != regs[in.b])
		case ir.OpICmpSLT:
			v = b2u(ir.SignedValue(in.srcTy, regs[in.a]) < ir.SignedValue(in.srcTy, regs[in.b]))
		case ir.OpICmpSLE:
			v = b2u(ir.SignedValue(in.srcTy, regs[in.a]) <= ir.SignedValue(in.srcTy, regs[in.b]))
		case ir.OpICmpSGT:
			v = b2u(ir.SignedValue(in.srcTy, regs[in.a]) > ir.SignedValue(in.srcTy, regs[in.b]))
		case ir.OpICmpSGE:
			v = b2u(ir.SignedValue(in.srcTy, regs[in.a]) >= ir.SignedValue(in.srcTy, regs[in.b]))
		case ir.OpFCmpOEQ:
			v = b2u(math.Float64frombits(regs[in.a]) == math.Float64frombits(regs[in.b]))
		case ir.OpFCmpONE:
			fx, fy := math.Float64frombits(regs[in.a]), math.Float64frombits(regs[in.b])
			v = b2u(fx < fy || fx > fy)
		case ir.OpFCmpOLT:
			v = b2u(math.Float64frombits(regs[in.a]) < math.Float64frombits(regs[in.b]))
		case ir.OpFCmpOLE:
			v = b2u(math.Float64frombits(regs[in.a]) <= math.Float64frombits(regs[in.b]))
		case ir.OpFCmpOGT:
			v = b2u(math.Float64frombits(regs[in.a]) > math.Float64frombits(regs[in.b]))
		case ir.OpFCmpOGE:
			v = b2u(math.Float64frombits(regs[in.a]) >= math.Float64frombits(regs[in.b]))
		case ir.OpTrunc, ir.OpZExt:
			v = ir.CanonInt(in.ty, regs[in.a])
		case ir.OpSExt:
			v = ir.CanonInt(in.ty, uint64(ir.SignedValue(in.srcTy, regs[in.a])))
		case ir.OpSIToFP:
			v = math.Float64bits(float64(ir.SignedValue(in.srcTy, regs[in.a])))
		case ir.OpSelect:
			v = regs[in.c]
			if regs[in.a]&1 != 0 {
				v = regs[in.b]
			}
		case ir.OpLoad:
			addr := regs[in.a]
			if addr == 0 || addr >= uint64(len(mem)) {
				r = addrFault(addr)
				goto out
			}
			v = ir.CanonInt(in.ty, mem[addr])
		case ir.OpStore:
			addr := regs[in.b]
			if addr == 0 || addr >= uint64(len(mem)) {
				r = addrFault(addr)
				goto out
			}
			mem[addr] = regs[in.a]
			pc++
			continue

		case ir.OpBr:
			moves, edge, blk, jump = in.movesA, in.edgeA, in.blkA, in.jumpA
			goto branch
		case ir.OpCondBr:
			if regs[in.a]&1 != 0 {
				moves, edge, blk, jump = in.movesA, in.edgeA, in.blkA, in.jumpA
			} else {
				moves, edge, blk, jump = in.movesB, in.edgeB, in.blkB, in.jumpB
			}
			goto branch
		case opFusedCmpBr:
			x, y := regs[in.a], regs[in.b]
			switch in.op1 {
			case ir.OpICmpEQ:
				v = b2u(x == y)
			case ir.OpICmpNE:
				v = b2u(x != y)
			case ir.OpICmpSLT:
				v = b2u(ir.SignedValue(in.srcTy, x) < ir.SignedValue(in.srcTy, y))
			case ir.OpICmpSLE:
				v = b2u(ir.SignedValue(in.srcTy, x) <= ir.SignedValue(in.srcTy, y))
			case ir.OpICmpSGT:
				v = b2u(ir.SignedValue(in.srcTy, x) > ir.SignedValue(in.srcTy, y))
			case ir.OpICmpSGE:
				v = b2u(ir.SignedValue(in.srcTy, x) >= ir.SignedValue(in.srcTy, y))
			case ir.OpFCmpOEQ:
				v = b2u(math.Float64frombits(x) == math.Float64frombits(y))
			case ir.OpFCmpONE:
				fx, fy := math.Float64frombits(x), math.Float64frombits(y)
				v = b2u(fx < fy || fx > fy)
			case ir.OpFCmpOLT:
				v = b2u(math.Float64frombits(x) < math.Float64frombits(y))
			case ir.OpFCmpOLE:
				v = b2u(math.Float64frombits(x) <= math.Float64frombits(y))
			case ir.OpFCmpOGT:
				v = b2u(math.Float64frombits(x) > math.Float64frombits(y))
			case ir.OpFCmpOGE:
				v = b2u(math.Float64frombits(x) >= math.Float64frombits(y))
			}
			left--
			if left < 0 {
				r = exitBudget
				goto out
			}
			regs[in.dst] = v
			if v != 0 {
				moves, edge, blk, jump = in.movesA, in.edgeA, in.blkA, in.jumpA
			} else {
				moves, edge, blk, jump = in.movesB, in.edgeB, in.blkB, in.jumpB
			}
			goto branch

		case opFusedLoadArith:
			addr := regs[in.a]
			if addr == 0 || addr >= uint64(len(mem)) {
				r = addrFault(addr)
				goto out
			}
			left--
			if left < 0 {
				r = exitBudget
				goto out
			}
			regs[in.dst] = ir.CanonInt(in.ty, mem[addr])
			goto second
		case opFusedArithLoad:
			x, y, ty := regs[in.a], regs[in.b], in.ty
			switch in.op1 {
			case ir.OpAdd:
				v = ir.CanonInt(ty, x+y)
			case ir.OpSub:
				v = ir.CanonInt(ty, x-y)
			case ir.OpMul:
				v = ir.CanonInt(ty, x*y)
			case ir.OpShl:
				v = ir.CanonInt(ty, x<<(y&uint64(ty.Bits()-1)))
			case ir.OpLShr:
				v = x >> (y & uint64(ty.Bits()-1)) // operands canonical: high bits clear
			case ir.OpAShr:
				v = ir.CanonInt(ty, uint64(ir.SignedValue(ty, x)>>(y&uint64(ty.Bits()-1))))
			case ir.OpAnd:
				v = x & y
			case ir.OpOr:
				v = x | y
			case ir.OpXor:
				v = x ^ y
			case ir.OpFAdd:
				v = math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
			case ir.OpFSub:
				v = math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y))
			case ir.OpFMul:
				v = math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y))
			case ir.OpFDiv:
				v = math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y))
			case ir.OpGEP:
				v = x + y
			}
			left--
			if left < 0 {
				r = exitBudget
				goto out
			}
			regs[in.dst] = v
			addr := regs[in.a2]
			if addr == 0 || addr >= uint64(len(mem)) {
				r = addrFault(addr) | exitHalf
				goto out
			}
			left--
			if left < 0 {
				r = exitBudget | exitHalf
				goto out
			}
			regs[in.dst2] = ir.CanonInt(in.ty2, mem[addr])
			pc++
			continue
		case opFusedArithStore:
			x, y, ty := regs[in.a], regs[in.b], in.ty
			switch in.op1 {
			case ir.OpAdd:
				v = ir.CanonInt(ty, x+y)
			case ir.OpSub:
				v = ir.CanonInt(ty, x-y)
			case ir.OpMul:
				v = ir.CanonInt(ty, x*y)
			case ir.OpShl:
				v = ir.CanonInt(ty, x<<(y&uint64(ty.Bits()-1)))
			case ir.OpLShr:
				v = x >> (y & uint64(ty.Bits()-1)) // operands canonical: high bits clear
			case ir.OpAShr:
				v = ir.CanonInt(ty, uint64(ir.SignedValue(ty, x)>>(y&uint64(ty.Bits()-1))))
			case ir.OpAnd:
				v = x & y
			case ir.OpOr:
				v = x | y
			case ir.OpXor:
				v = x ^ y
			case ir.OpFAdd:
				v = math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
			case ir.OpFSub:
				v = math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y))
			case ir.OpFMul:
				v = math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y))
			case ir.OpFDiv:
				v = math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y))
			case ir.OpGEP:
				v = x + y
			}
			left--
			if left < 0 {
				r = exitBudget
				goto out
			}
			regs[in.dst] = v
			addr := regs[in.b2]
			if addr == 0 || addr >= uint64(len(mem)) {
				r = addrFault(addr) | exitHalf
				goto out
			}
			mem[addr] = regs[in.a2]
			pc++
			continue
		case opFusedArithArith:
			x, y, ty := regs[in.a], regs[in.b], in.ty
			switch in.op1 {
			case ir.OpAdd:
				v = ir.CanonInt(ty, x+y)
			case ir.OpSub:
				v = ir.CanonInt(ty, x-y)
			case ir.OpMul:
				v = ir.CanonInt(ty, x*y)
			case ir.OpShl:
				v = ir.CanonInt(ty, x<<(y&uint64(ty.Bits()-1)))
			case ir.OpLShr:
				v = x >> (y & uint64(ty.Bits()-1)) // operands canonical: high bits clear
			case ir.OpAShr:
				v = ir.CanonInt(ty, uint64(ir.SignedValue(ty, x)>>(y&uint64(ty.Bits()-1))))
			case ir.OpAnd:
				v = x & y
			case ir.OpOr:
				v = x | y
			case ir.OpXor:
				v = x ^ y
			case ir.OpFAdd:
				v = math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
			case ir.OpFSub:
				v = math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y))
			case ir.OpFMul:
				v = math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y))
			case ir.OpFDiv:
				v = math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y))
			case ir.OpGEP:
				v = x + y
			}
			left--
			if left < 0 {
				r = exitBudget
				goto out
			}
			regs[in.dst] = v
			goto second

		default: // OpCall, OpRet, OpAlloca, OpSDiv, OpSRem, OpFPToSI
			r = exitSlot
			goto out
		}
		left--
		if left < 0 {
			r = exitBudget
			goto out
		}
		regs[in.dst] = v
		pc++
		continue

	second: // the arithmetic second half of opFusedLoadArith and opFusedArithArith
		{
			x, y, ty := regs[in.a2], regs[in.b2], in.ty2
			switch in.op2 {
			case ir.OpAdd:
				v = ir.CanonInt(ty, x+y)
			case ir.OpSub:
				v = ir.CanonInt(ty, x-y)
			case ir.OpMul:
				v = ir.CanonInt(ty, x*y)
			case ir.OpShl:
				v = ir.CanonInt(ty, x<<(y&uint64(ty.Bits()-1)))
			case ir.OpLShr:
				v = x >> (y & uint64(ty.Bits()-1)) // operands canonical: high bits clear
			case ir.OpAShr:
				v = ir.CanonInt(ty, uint64(ir.SignedValue(ty, x)>>(y&uint64(ty.Bits()-1))))
			case ir.OpAnd:
				v = x & y
			case ir.OpOr:
				v = x | y
			case ir.OpXor:
				v = x ^ y
			case ir.OpFAdd:
				v = math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
			case ir.OpFSub:
				v = math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y))
			case ir.OpFMul:
				v = math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y))
			case ir.OpFDiv:
				v = math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y))
			case ir.OpGEP:
				v = x + y
			}
		}
		left--
		if left < 0 {
			r = exitBudget | exitHalf
			goto out
		}
		regs[in.dst2] = v
		pc++
		continue

	branch: // a taken edge: its phi moves, then its counters and target
		if n := len(moves); n != 0 {
			if int64(n) > left {
				r = exitMoves
				goto out
			}
			buf := e.moveBuf[:n]
			for i := range moves {
				buf[i] = regs[moves[i].src]
			}
			for i := range moves {
				regs[moves[i].dst] = buf[i]
			}
			left -= int64(n)
			e.blockCounts[edge]++
		}
		e.blockCounts[blk]++
		pc = jump
		if e.maxDyn-left >= e.conv.at {
			r = exitBlock
			goto out
		}
	}
out:
	e.frames[len(e.frames)-1].pc, e.dyn = pc, e.maxDyn-left
	return r
}
