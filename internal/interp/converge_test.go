package interp

import (
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/xrand"
)

// maskProg is a white-box program for the converged-trial tests, with the
// static IDs of three fault targets.
type maskProg struct {
	p    *Program
	args []uint64
	// dead is a loop value nothing reads; stored is written only into a
	// leaf's stack buffer, which is above memTop once the leaf returns;
	// kept is written into a word below memTop that the program prints at
	// its end.
	dead, stored, kept int
}

// buildMasking builds
//
//	leaf(x) { buf = alloca 4; store x+1, buf; return 0 }
//	big()   { alloca 64; return 0 }
//	main(n, d) { keep = alloca 1; store n+7, keep
//	             for i < n { dead = i*3; s += i + leaf(i) }
//	             print s; print load(keep); sdc_detect()
//	             return s/d + big() }
//
// The run raises the detection flag only after the loop. With d = 0 it
// traps at its end, and big needs more memory after the loop than the loop
// ever uses.
func buildMasking(t testing.TB) maskProg {
	m := ir.NewModule("masking")
	leaf := m.NewFunc("leaf", ir.I64, &ir.Param{Name: "x", Ty: ir.I64})
	lb := ir.NewBuilder(leaf)
	buf := lb.AllocaN(4)
	stored := lb.Add(lb.Param(0), ir.I64c(1))
	lb.Store(stored, buf)
	lb.Ret(ir.I64c(0))

	big := m.NewFunc("big", ir.I64)
	bb := ir.NewBuilder(big)
	bb.AllocaN(64)
	bb.Ret(ir.I64c(0))

	main := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64}, &ir.Param{Name: "d", Ty: ir.I64})
	b := ir.NewBuilder(main)
	entry := b.Cur
	keep := b.AllocaN(1)
	kept := b.Add(b.Param(0), ir.I64c(7))
	b.Store(kept, keep)
	loop := b.Block("loop")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, i, b.Param(0)), body, exit)
	b.SetBlock(body)
	dead := b.Mul(i, ir.I64c(3))
	z := b.Call(ir.I64, "leaf", i)
	s2 := b.Add(s, b.Add(i, z))
	i2 := b.Add(i, ir.I64c(1))
	b.Br(loop)
	ir.AddIncoming(i, ir.I64c(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.I64c(0), entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	b.Call(ir.Void, "print_i64", s)
	b.Call(ir.Void, "print_i64", b.Load(ir.I64, keep))
	b.Call(ir.Void, "sdc_detect")
	b.Ret(b.Add(b.SDiv(s, b.Param(1)), b.Call(ir.I64, "big")))
	p := mustCompile(t, m)
	return maskProg{p: p, args: []uint64{60, 1}, dead: dead.ID, stored: stored.ID, kept: kept.ID}
}

// checkpointsOf records mp's golden with snapshots every 10 instructions.
func (mp maskProg) checkpointsOf(t *testing.T) (*Result, *Checkpoints) {
	t.Helper()
	g := Run(mp.p, mp.args, Options{Profile: true, CheckpointInterval: 10})
	if g.Trap != nil || g.Checkpoints.end == nil || len(g.Checkpoints.snaps) < 8 {
		t.Fatalf("bad golden: trap %v, %d snapshots", g.Trap, len(g.Checkpoints.snaps))
	}
	return g, g.Checkpoints
}

// convergeTrial runs one static-plan trial against c on a fresh machine,
// requires it to equal a fresh Run, and returns it with the number of
// trials c counted as converged.
func (mp maskProg) convergeTrial(t *testing.T, c *Checkpoints, id int, occ, maxDyn int64) (*Result, int64) {
	t.Helper()
	plan := fault.Plan{Mode: fault.ModeStatic, StaticID: id, Occurrence: occ, Bit: 5}
	before := c.Stats()
	got := NewInjector(mp.p).Trial(mp.args, c, &plan, xrand.New(1), maxDyn)
	want := Run(mp.p, mp.args, Options{Plan: &plan, MaxDyn: maxDyn})
	sameResult(t, "trial", want, got)
	after := c.Stats()
	if conv := after.Converged - before.Converged; conv == 1 && after.ConvergedDyn <= before.ConvergedDyn {
		t.Fatalf("converged trial skipped no tail instructions: %+v", after)
	}
	return got, after.Converged - before.Converged
}

// TestInjectorConvergesOnMaskedFaults: a fault on a dead loop value, and a
// fault that reaches only a returned leaf's stack buffer (a difference
// above memTop), both re-join the golden run and end early with the
// golden's return value and output.
func TestInjectorConvergesOnMaskedFaults(t *testing.T) {
	mp := buildMasking(t)
	g, c := mp.checkpointsOf(t)
	for _, id := range []int{mp.dead, mp.stored} {
		r, conv := mp.convergeTrial(t, c, id, 30, g.DynCount*3)
		if conv != 1 {
			t.Fatalf("instruction %d: masked fault did not converge", id)
		}
		if r.Ret != g.Ret || !OutputEqual(r.Output, g.Output) || !r.DetectedFlag {
			t.Fatalf("instruction %d: converged trial ended %d %v detected %v, golden %d %v", id, r.Ret, r.Output, r.DetectedFlag, g.Ret, g.Output)
		}
	}
	// A fault on the word below memTop stays visible to the end: an SDC.
	if r, conv := mp.convergeTrial(t, c, mp.kept, 1, g.DynCount*3); conv != 0 || OutputEqual(r.Output, g.Output) {
		t.Fatalf("fault on a live memory word: converged %d, output %v (golden %v)", conv, r.Output, g.Output)
	}
}

// TestInjectorConvergenceNeedsBudget: with a trial budget below the
// golden's end a masked trial must not converge; it stays a hang.
func TestInjectorConvergenceNeedsBudget(t *testing.T) {
	mp := buildMasking(t)
	g, c := mp.checkpointsOf(t)
	r, conv := mp.convergeTrial(t, c, mp.dead, 30, g.DynCount-1)
	if conv != 0 || !r.BudgetExceeded {
		t.Fatalf("budget %d below the golden's %d: converged %d, budget exceeded %v", g.DynCount-1, g.DynCount, conv, r.BudgetExceeded)
	}
}

// TestInjectorConvergenceNeedsGoldenEnd: the golden must have returned
// under limits no larger than the trial's. A golden that traps records no
// end, and a batch machine whose memory limit the golden's tail exceeds
// must run its masked trials into the same trap a fresh run hits.
func TestInjectorConvergenceNeedsGoldenEnd(t *testing.T) {
	mp := buildMasking(t)
	mp.args = []uint64{60, 0}
	g := Run(mp.p, mp.args, Options{Profile: true, CheckpointInterval: 10})
	if g.Trap == nil || g.Checkpoints.end != nil {
		t.Fatalf("golden dividing by zero: trap %v, end %+v", g.Trap, g.Checkpoints.end)
	}
	if r, conv := mp.convergeTrial(t, g.Checkpoints, mp.dead, 30, g.DynCount*3); conv != 0 || r.Trap == nil {
		t.Fatalf("trial against a trapping golden: converged %d, trap %v", conv, r.Trap)
	}

	mp.args = []uint64{60, 1}
	g, c := mp.checkpointsOf(t)
	const maxMem = 32 // the loop peaks at 6 words, big needs 66
	plan := fault.Plan{Mode: fault.ModeStatic, StaticID: mp.dead, Occurrence: 30, Bit: 5}
	want := Run(mp.p, mp.args, Options{Plan: &plan, MaxDyn: g.DynCount * 3, MaxMemWords: maxMem})
	if want.Trap == nil || want.Trap.Kind != TrapBadAlloc {
		t.Fatalf("fresh run under %d words: trap %v", maxMem, want.Trap)
	}
	BatchRun(mp.p, mp.args, c, c.ForPlan(&plan), []BatchTrial{{Plan: plan}},
		Options{MaxDyn: g.DynCount * 3, MaxMemWords: maxMem}, func(_ int, r *Result) {
			sameResult(t, "tight memory", want, r)
		})
	if st := c.Stats(); st.Converged != 0 {
		t.Fatalf("machine with %d memory words converged: %+v", maxMem, st)
	}
}

// TestInjectorConvergesFromEntry: a trial injected before the first
// snapshot starts at the program entry, with no snapshot to resume from,
// and its tail still re-joins the golden at a later snapshot.
func TestInjectorConvergesFromEntry(t *testing.T) {
	mp := buildMasking(t)
	g, c := mp.checkpointsOf(t)
	before := c.Stats()
	if _, conv := mp.convergeTrial(t, c, mp.dead, 1, g.DynCount*3); conv != 1 {
		t.Fatalf("trial from the entry: converged %d, want 1", conv)
	}
	if st := c.Stats(); st.Scratch != before.Scratch+1 {
		t.Fatalf("trial before the first snapshot did not start at the entry: %+v", st)
	}
}

// TestInjectorConvergenceComparesObservableState drives converge directly
// on a machine restored to a snapshot: it matches as restored and with a
// changed word above memTop, and never with one changed register, memory
// word below memTop or output value.
func TestInjectorConvergenceComparesObservableState(t *testing.T) {
	mp := buildMasking(t)
	g, c := mp.checkpointsOf(t)
	s := c.snaps[len(c.snaps)/2]
	if len(s.output) != 0 {
		t.Fatal("mid-run snapshot has output")
	}
	for _, tc := range []struct {
		name   string
		edit   func(e *exec)
		output bool // give golden and machine one printed value first
		want   bool
	}{
		{"as restored", func(*exec) {}, false, true},
		{"word above memTop", func(e *exec) { e.mem[e.memTop]++ }, false, true},
		{"memTop", func(e *exec) { e.memTop++ }, false, false},
		{"frame pc", func(e *exec) { e.frames[len(e.frames)-1].pc++ }, false, false},
		{"register", func(e *exec) { e.regSlab[e.slabTop-1] ^= 1 << 40 }, false, false},
		{"word below memTop", func(e *exec) { e.mem[e.memTop-1]++ }, false, false},
		{"output value", func(e *exec) { e.output[0].Bits++ }, true, false},
	} {
		snap := *s
		if tc.output {
			snap.output = []OutVal{{Ty: ir.I64, Bits: 3}}
		}
		cc := &Checkpoints{prog: c.prog, interval: c.interval, snaps: []*Snapshot{&snap}, end: c.end}
		e := NewInjector(mp.p).e
		e.resetFast(0)
		snap.restoreInto(e)
		e.toFused() // the trial machine's hand-off to the fast loop
		if int64(len(e.mem)) <= e.memTop {
			e.growMem(e.memTop, e.memTop+1)
		}
		tc.edit(e)
		e.armConvergence(cc)
		ok := false
		if e.dyn >= e.conv.at { // the fast loop's check at a block entry
			ok = e.converge()
		}
		if ok != tc.want {
			t.Fatalf("%s: converged %v, want %v", tc.name, ok, tc.want)
		}
		ret := cc.end.ret // what runFast returns on a match
		if ok && (ret != g.Ret || e.dyn != g.DynCount || !OutputEqual(e.output, g.Output) || !e.detected ||
			cc.Stats().ConvergedDyn != g.DynCount-s.dyn) {
			t.Fatalf("%s: converged to ret %d dyn %d output %v detected %v, golden %d %d %v", tc.name, ret, e.dyn, e.output, e.detected, g.Ret, g.DynCount, g.Output)
		}
	}
}

// TestInjectorConvergesUnderSuspendedCaller: a masked fault in a callee
// converges at a snapshot taken inside the callee, while the caller is
// suspended at a call that follows a fused pair, so the call's pc differs
// between the unfused arrays snapshots hold and the fused arrays the trial
// tail runs. The compare must translate every frame, not only the top one.
//
//	callee(x) { for j < 40 { dead = j*x; acc += j }; return acc }
//	main(n)   { r = callee(n*3 + 1); print r; return r }
func TestInjectorConvergesUnderSuspendedCaller(t *testing.T) {
	m := ir.NewModule("suspended")
	callee := m.NewFunc("callee", ir.I64, &ir.Param{Name: "x", Ty: ir.I64})
	cb := ir.NewBuilder(callee)
	entry := cb.Cur
	loop := cb.Block("loop")
	body := cb.Block("body")
	exit := cb.Block("exit")
	cb.Br(loop)
	cb.SetBlock(loop)
	j := cb.Phi(ir.I64)
	acc := cb.Phi(ir.I64)
	cb.CondBr(cb.ICmp(ir.OpICmpSLT, j, ir.I64c(40)), body, exit)
	cb.SetBlock(body)
	dead := cb.Mul(j, cb.Param(0))
	acc2 := cb.Add(acc, j)
	j2 := cb.Add(j, ir.I64c(1))
	cb.Br(loop)
	ir.AddIncoming(j, ir.I64c(0), entry)
	ir.AddIncoming(j, j2, body)
	ir.AddIncoming(acc, ir.I64c(0), entry)
	ir.AddIncoming(acc, acc2, body)
	cb.SetBlock(exit)
	cb.Ret(acc)

	main := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(main)
	r := b.Call(ir.I64, "callee", b.Add(b.Mul(b.Param(0), ir.I64c(3)), ir.I64c(1)))
	b.Call(ir.Void, "print_i64", r)
	b.Ret(r)
	mp := maskProg{p: mustCompile(t, m), args: []uint64{5}}

	mf := mp.p.funcs[mp.p.funcIdx["main"]]
	call := -1
	for pc := range mf.code {
		if mf.code[pc].op == ir.OpCall && mf.code[pc].callee >= 0 {
			call = pc
		}
	}
	if call < 0 || mf.fusedPC[call] == int32(call) {
		t.Fatalf("the call at unfused pc %d must sit at another fused pc, got %d", call, mf.fusedPC[call])
	}

	g, c := mp.checkpointsOf(t)
	if _, conv := mp.convergeTrial(t, c, dead.ID, 10, g.DynCount*3); conv == 0 {
		t.Fatal("masked fault in the callee did not converge")
	}
	at := g.DynCount - c.Stats().ConvergedDyn
	i := sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].dyn >= at })
	if i == len(c.snaps) || c.snaps[i].dyn != at || len(c.snaps[i].frames) != 2 {
		t.Fatalf("trial did not converge at a snapshot inside the callee (dyn %d)", at)
	}
}
