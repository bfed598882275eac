package interp

import "repro/internal/ir"

// Superinstruction fusion. The fused code array
// combines hot adjacent instruction pairs into single dispatch slots, in the
// style of threaded-code superinstructions (Ertl & Gregg): a comparison
// feeding the block's conditional branch, a load feeding arithmetic,
// arithmetic feeding a load/store address or another arithmetic op. Fusion
// never crosses a block boundary (all jump targets are block starts, so a
// fused slot can never be entered mid-pair), and each fused handler of the
// fast loop replicates the sequential semantics sub-instruction by
// sub-instruction — including the dynamic-instruction clock, the budget
// check ordering and the trap points — so results are bit-identical to the
// unfused array. Only the fast loop runs the fused array; the generic
// engine runs the unfused one, and machine state crosses between them
// through fusedPC (a trial's hand-off, the convergence compare).
//
// Fused opcodes are numbered right after the last ir opcode, so the fast
// loop's one switch covers every slot with one dense jump table; they
// exist only inside compiled fused code and never appear in a Program's
// unfused array.
const (
	opFusedCmpBr      ir.Op = ir.NumOps + iota // icmp/fcmp + condbr on its result
	opFusedLoadArith                           // load + arithmetic
	opFusedArithLoad                           // arithmetic + load (e.g. gep + load)
	opFusedArithStore                          // arithmetic + store (e.g. gep + store)
	opFusedArithArith                          // arithmetic + arithmetic (e.g. fmul + fadd)
)

// fusableArith is the set of non-trapping single-value operators eligible
// for the arithmetic side of a fused pair. GEP is plain pointer addition
// here, which makes the address-computation pairs (gep+load, gep+store) the
// most common fusions in the array-heavy benchmarks. Division is excluded
// (it traps), as are casts/select (rarely adjacent, keep the matcher small).
func fusableArith(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpGEP:
		return true
	}
	return false
}

// fusePair tries to combine two adjacent instructions of one block into a
// superinstruction. The first sub-instruction keeps the inst's primary
// fields (ty/dst/id/a/b), the second moves into ty2/dst2/id2/a2/b2; op1/op2
// record the original opcodes. Operand refs need no rewriting: the handlers
// write the first result to its register before evaluating the second
// sub-instruction, exactly like sequential execution.
func fusePair(a, b *inst) (inst, bool) {
	switch {
	case a.op.IsCmp() && b.op == ir.OpCondBr && b.a == ref(a.dst):
		fi := *b // keep the branch's jumps, moves, edge and block counters
		fi.op = opFusedCmpBr
		fi.op1 = a.op
		fi.ty, fi.srcTy = a.ty, a.srcTy
		fi.dst, fi.id = a.dst, a.id
		fi.a, fi.b = a.a, a.b
		return fi, true
	case a.op == ir.OpLoad && fusableArith(b.op):
		fi := *a
		fi.op = opFusedLoadArith
		fi.op1, fi.op2 = a.op, b.op
		fi.ty2, fi.dst2, fi.id2 = b.ty, b.dst, b.id
		fi.a2, fi.b2 = b.a, b.b
		return fi, true
	case fusableArith(a.op) && b.op == ir.OpLoad:
		fi := *a
		fi.op = opFusedArithLoad
		fi.op1, fi.op2 = a.op, b.op
		fi.ty2, fi.dst2, fi.id2 = b.ty, b.dst, b.id
		fi.a2 = b.a
		return fi, true
	case fusableArith(a.op) && b.op == ir.OpStore:
		fi := *a
		fi.op = opFusedArithStore
		fi.op1, fi.op2 = a.op, b.op
		fi.a2, fi.b2 = b.a, b.b // store value, store address
		return fi, true
	case fusableArith(a.op) && fusableArith(b.op):
		fi := *a
		fi.op = opFusedArithArith
		fi.op1, fi.op2 = a.op, b.op
		fi.ty2, fi.dst2, fi.id2 = b.ty, b.dst, b.id
		fi.a2, fi.b2 = b.a, b.b
		return fi, true
	}
	return inst{}, false
}

// fuseFunc builds the function's fused code array: a greedy left-to-right
// pairing within each block, then a jump-target remap from unfused to fused
// pcs, kept as fusedPC. Global counter indices (blkA/blkB/edgeA/edgeB) are
// positions in the shared counter space, not pcs, so they carry over
// unchanged.
func fuseFunc(cf *compiledFunc) {
	n := len(cf.code)
	remap := make([]int32, n)
	fused := make([]inst, 0, n)
	fusedOf := make([]int32, 0, n)
	for i := 0; i < n; {
		remap[i] = int32(len(fused))
		lb := cf.blockOf[i]
		if i+1 < n && cf.blockOf[i+1] == lb {
			if fi, ok := fusePair(&cf.code[i], &cf.code[i+1]); ok {
				remap[i+1] = -1 // mid-pair: never a jump target, a block entry or a call
				fused = append(fused, fi)
				fusedOf = append(fusedOf, lb)
				i += 2
				continue
			}
		}
		fused = append(fused, cf.code[i])
		fusedOf = append(fusedOf, lb)
		i++
	}
	for idx := range fused {
		in := &fused[idx]
		switch in.op {
		case ir.OpBr:
			in.jumpA = remap[in.jumpA]
		case ir.OpCondBr, opFusedCmpBr:
			in.jumpA, in.jumpB = remap[in.jumpA], remap[in.jumpB]
		}
	}
	cf.fused = fused
	cf.fusedPC = remap
	cf.fusedOf = fusedOf
	cf.fusedStart = make([]int32, cf.numBlocks)
	for lb, s := range cf.blockStart {
		cf.fusedStart[lb] = remap[s]
	}
}
