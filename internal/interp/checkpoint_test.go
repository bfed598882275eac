package interp

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/xrand"
)

// ckptProgs are small white-box programs covering loops, recursion (frame
// stack depth across snapshots), memory traffic and printed output.
func ckptProgs(t *testing.T) map[string]struct {
	p    *Program
	args []uint64
} {
	t.Helper()
	return map[string]struct {
		p    *Program
		args []uint64
	}{
		"sumloop":   {buildSumLoop(t), []uint64{200}},
		"memory":    {buildMemory(t), []uint64{30}},
		"factorial": {buildFactorial(t), []uint64{9}},
	}
}

func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Ret != got.Ret || want.DynCount != got.DynCount ||
		want.Injected != got.Injected || want.InjectedID != got.InjectedID ||
		want.InjectedBit != got.InjectedBit || want.BudgetExceeded != got.BudgetExceeded ||
		want.DetectedFlag != got.DetectedFlag {
		t.Fatalf("%s: result mismatch\nscratch: %+v\nresumed: %+v", label, want, got)
	}
	if (want.Trap == nil) != (got.Trap == nil) || (want.Trap != nil && *want.Trap != *got.Trap) {
		t.Fatalf("%s: trap mismatch: %v vs %v", label, want.Trap, got.Trap)
	}
	if !OutputEqual(want.Output, got.Output) {
		t.Fatalf("%s: output mismatch: %v vs %v", label, want.Output, got.Output)
	}
	if want.InstrCounts != nil || got.InstrCounts != nil {
		if !reflect.DeepEqual(want.InstrCounts, got.InstrCounts) {
			t.Fatalf("%s: instruction count mismatch", label)
		}
	}
	if (want.Propagation == nil) != (got.Propagation == nil) ||
		(want.Propagation != nil && *want.Propagation != *got.Propagation) {
		t.Fatalf("%s: propagation mismatch: %+v vs %+v", label, want.Propagation, got.Propagation)
	}
}

// TestCheckpointSchedule verifies snapshot spacing and the ForPlan
// selection invariant (latest snapshot strictly before the injection point).
func TestCheckpointSchedule(t *testing.T) {
	for name, tc := range ckptProgs(t) {
		const interval = 10
		r := Run(tc.p, tc.args, Options{Profile: true, CheckpointInterval: interval})
		if r.Trap != nil {
			t.Fatalf("%s: golden trapped: %v", name, r.Trap)
		}
		c := r.Checkpoints
		if c == nil || c.Snapshots() == 0 {
			t.Fatalf("%s: no checkpoints recorded", name)
		}
		if c.Interval() != interval {
			t.Fatalf("%s: interval %d, want %d", name, c.Interval(), interval)
		}
		prev := int64(0)
		for _, s := range c.snaps {
			if s.dyn < prev+interval && prev != 0 {
				t.Fatalf("%s: snapshots closer than the interval: %d after %d", name, s.dyn, prev)
			}
			if s.dyn >= r.DynCount {
				t.Fatalf("%s: snapshot at %d beyond run end %d", name, s.dyn, r.DynCount)
			}
			prev = s.dyn
		}
		for target := int64(1); target <= r.DynCount; target += 7 {
			s := c.ForPlan(&fault.Plan{Mode: fault.ModeDynamic, TargetDyn: target, Bit: 0})
			if s == nil {
				if target > c.snaps[0].dyn {
					t.Fatalf("%s: no snapshot for target %d despite first at %d", name, target, c.snaps[0].dyn)
				}
				continue
			}
			if s.Dyn() >= target {
				t.Fatalf("%s: snapshot at %d not strictly before target %d", name, s.Dyn(), target)
			}
		}
	}
}

// TestRunFromMatchesRun exhaustively checks, for every dynamic injection
// point of each white-box program, that a checkpoint-resumed faulty run is
// bit-identical to a from-scratch one.
func TestRunFromMatchesRun(t *testing.T) {
	for name, tc := range ckptProgs(t) {
		golden := Run(tc.p, tc.args, Options{Profile: true, CheckpointInterval: 13})
		if golden.Trap != nil || golden.DynCount == 0 {
			t.Fatalf("%s: bad golden: %+v", name, golden)
		}
		budget := golden.DynCount*3 + 1000
		for target := int64(1); target <= golden.DynCount; target++ {
			plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: target, Bit: 0}
			scratch := Run(tc.p, tc.args, Options{Plan: &plan, MaxDyn: budget})
			resumed := RunWithCheckpoints(tc.p, tc.args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget})
			sameResult(t, name, scratch, resumed)
			if !scratch.Injected {
				t.Fatalf("%s: plan at dyn %d did not activate", name, target)
			}
		}
		st := golden.Checkpoints.Stats()
		if st.Restored == 0 || st.Scratch == 0 {
			t.Fatalf("%s: expected both resumed and scratch trials, got %+v", name, st)
		}
		if st.SkippedDyn == 0 {
			t.Fatalf("%s: no prefix instructions skipped", name)
		}
	}
}

// TestRunFromStaticMode checks occurrence-targeted plans across snapshots:
// the occurrence count of the target instruction is reconstructed from the
// snapshot's profile vector.
func TestRunFromStaticMode(t *testing.T) {
	for name, tc := range ckptProgs(t) {
		golden := Run(tc.p, tc.args, Options{Profile: true, CheckpointInterval: 13})
		budget := golden.DynCount*3 + 1000
		for id, execs := range golden.InstrCounts {
			if execs == 0 {
				continue
			}
			for _, occ := range []int64{1, (execs + 1) / 2, execs} {
				plan := fault.Plan{Mode: fault.ModeStatic, StaticID: id, Occurrence: occ, Bit: 0}
				scratch := Run(tc.p, tc.args, Options{Plan: &plan, MaxDyn: budget})
				resumed := RunWithCheckpoints(tc.p, tc.args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget})
				sameResult(t, name, scratch, resumed)
				if !scratch.Injected {
					t.Fatalf("%s: static plan id=%d occ=%d did not activate", name, id, occ)
				}
			}
		}
	}
}

// TestRunFromTaint pins taint state across Restore: propagation statistics
// of resumed runs must match scratch runs bit for bit (the golden prefix is
// taint-free, so a fresh shadow is the correct restored state).
func TestRunFromTaint(t *testing.T) {
	for name, tc := range ckptProgs(t) {
		golden := Run(tc.p, tc.args, Options{Profile: true, CheckpointInterval: 11})
		budget := golden.DynCount*3 + 1000
		for target := int64(1); target <= golden.DynCount; target += 3 {
			plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: target, Bit: 0}
			scratch := Run(tc.p, tc.args, Options{Plan: &plan, MaxDyn: budget, TrackPropagation: true})
			resumed := RunWithCheckpoints(tc.p, tc.args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget, TrackPropagation: true})
			sameResult(t, name, scratch, resumed)
		}
	}
}

// TestSnapshotImmutable verifies trials cannot corrupt snapshots: resuming
// twice from the same checkpointed golden gives identical results even
// though the first trial scribbled over the restored memory image.
func TestSnapshotImmutable(t *testing.T) {
	p := buildMemory(t)
	args := []uint64{30}
	golden := Run(p, args, Options{Profile: true, CheckpointInterval: 5})
	budget := golden.DynCount*3 + 1000
	plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: golden.DynCount - 1, Bit: 0}
	first := RunWithCheckpoints(p, args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget})
	second := RunWithCheckpoints(p, args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget})
	sameResult(t, "memory", first, second)
}

// TestRunFromPendingBit checks that deferred bit draws stay in sync: the
// prefix consumes no randomness, so equal-seeded RNGs land on the same bit.
func TestRunFromPendingBit(t *testing.T) {
	p := buildSumLoop(t)
	args := []uint64{150}
	golden := Run(p, args, Options{Profile: true, CheckpointInterval: 20})
	budget := golden.DynCount*3 + 1000
	planRNG := xrand.New(99)
	for i := 0; i < 50; i++ {
		plan := fault.SampleDynamic(planRNG, golden.DynCount)
		rA, rB := xrand.New(7), xrand.New(7)
		scratch := Run(p, args, Options{Plan: &plan, FaultRNG: rA, MaxDyn: budget})
		resumed := RunWithCheckpoints(p, args, golden.Checkpoints, Options{Plan: &plan, FaultRNG: rB, MaxDyn: budget})
		sameResult(t, "sumloop", scratch, resumed)
	}
}

func TestCheckpointWithPlanPanics(t *testing.T) {
	p := buildSumLoop(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for CheckpointInterval + Plan")
		}
	}()
	plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: 1, Bit: 0}
	Run(p, []uint64{10}, Options{CheckpointInterval: 8, Plan: &plan})
}

func TestAutoCheckpointInterval(t *testing.T) {
	if got := AutoCheckpointInterval(10); got != 64 {
		t.Fatalf("tiny run: got %d, want the 64 floor", got)
	}
	if got := AutoCheckpointInterval(640_000); got != 10_000 {
		t.Fatalf("large run: got %d, want dyn/64", got)
	}
}

// chunkCopies returns the contents of every chunk a holds, slots past its
// length included.
func chunkCopies[T uint64 | int64](a chunks[T]) [][chunkWords]T {
	out := make([][chunkWords]T, len(a.cs))
	for i, c := range a.cs {
		out[i] = *c
	}
	return out
}

// checkShared requires every chunk of s to be prev's chunk at the same
// offset exactly when their words are equal, and returns how many are.
func checkShared[T uint64 | int64](t *testing.T, label string, prev, s chunks[T]) int {
	t.Helper()
	n := 0
	for i, c := range s.cs {
		w := c[:min(chunkWords, s.n-i<<chunkShift)]
		equal := i < len(prev.cs) && slices.Equal(prev.cs[i][:len(w)], w)
		if shared := i < len(prev.cs) && prev.cs[i] == c; shared != equal {
			t.Fatalf("%s chunk %d: shared %v, words equal %v", label, i, shared, equal)
		}
		if equal {
			n++
		}
	}
	return n
}

// TestSnapshotChunksShareUnchanged: consecutive snapshots share every
// unchanged chunk by pointer, in memory, registers and counts, and one
// written word unshares only its own chunk.
func TestSnapshotChunksShareUnchanged(t *testing.T) {
	p := buildMemory(t)
	g := Run(p, []uint64{200}, Options{Profile: true, CheckpointInterval: 37})
	snaps := g.Checkpoints.snaps
	sharedMem := 0
	for k := 1; k < len(snaps); k++ {
		prev, s := snaps[k-1], snaps[k]
		sharedMem += checkShared(t, "memory", prev.mem, s.mem)
		checkShared(t, "registers", prev.regs, s.regs)
		checkShared(t, "counts", prev.counts, s.counts)
	}
	if sharedMem == 0 {
		t.Fatal("no snapshot shares a memory chunk with its predecessor")
	}

	// Three chunks and a partial one in each array, every word distinct.
	const n = 3*chunkWords + 7
	e := newExec(p, Options{})
	e.counts = make([]int64, n)
	e.growSlab(n)
	e.memTop, e.slabTop = n, n
	for i := 1; i < n; i++ {
		e.mem[i], e.regSlab[i], e.counts[i] = uint64(i), uint64(i)<<8, int64(i)<<16
	}
	first, _ := e.captureSnapshot(nil)
	same, _ := e.captureSnapshot(first)
	for _, arr := range []struct {
		name        string
		first, same []*[chunkWords]uint64
	}{{"memory", first.mem.cs, same.mem.cs}, {"registers", first.regs.cs, same.regs.cs}} {
		if !slices.Equal(arr.first, arr.same) {
			t.Fatalf("%s: an unchanged state did not share every chunk", arr.name)
		}
	}
	if !slices.Equal(first.counts.cs, same.counts.cs) {
		t.Fatal("counts: an unchanged state did not share every chunk")
	}

	// One word in chunk 1 of memory, chunk 2 of the registers and chunk 0
	// of the counts; memory also grows by zeroed words, as an alloca
	// claims them, which the partial last chunk still covers.
	e.mem[chunkWords+3]++
	e.regSlab[2*chunkWords]++
	e.counts[5]++
	e.memTop += 4
	next, _ := e.captureSnapshot(same)
	for _, arr := range []struct {
		name     string
		fresh    int
		prev, cs []*[chunkWords]uint64
	}{{"memory", 1, same.mem.cs, next.mem.cs}, {"registers", 2, same.regs.cs, next.regs.cs}} {
		for i := range arr.cs {
			if fresh := arr.cs[i] != arr.prev[i]; fresh != (i == arr.fresh) {
				t.Fatalf("%s chunk %d: fresh %v after one word of chunk %d changed", arr.name, i, fresh, arr.fresh)
			}
		}
	}
	for i := range next.counts.cs {
		if fresh := next.counts.cs[i] != same.counts.cs[i]; fresh != (i == 0) {
			t.Fatalf("counts chunk %d: fresh %v after one word of chunk 0 changed", i, fresh)
		}
	}
	if !next.mem.equal(e.mem[:e.memTop]) || !next.regs.equal(e.regSlab[:e.slabTop]) || !next.counts.equal(e.counts) {
		t.Fatal("snapshot does not hold the machine's words")
	}
}

// reclaimProg is a program whose memTop crosses chunk boundaries between
// snapshots, and whose popped callee frame leaves written words above
// memTop until a later alloca reclaims and zeroes them:
//
//	fill(k) { buf = alloca 40; for i < 40 { store i*k+1, buf+i }
//	          return load(buf+7) }
//	main(n) { head = alloca 20; store n, head+19
//	          r = fill(n)        // memTop 21 -> 61 -> 21
//	          tail = alloca 50   // memTop 71: fill's words, zeroed
//	          for j < 50 { s += load(tail+j); store s+r, tail+j }
//	          print s; print load(tail+49); print load(head+19); return s }
//
// stored is the static ID of fill's stored value: a fault on it is masked
// once fill returns, except on the word fill returns.
func buildReclaim(t testing.TB) (p *Program, stored int) {
	m := ir.NewModule("reclaim")
	fill := m.NewFunc("fill", ir.I64, &ir.Param{Name: "k", Ty: ir.I64})
	fb := ir.NewBuilder(fill)
	fentry := fb.Cur
	buf := fb.AllocaN(40)
	floop, fbody, fexit := fb.Block("loop"), fb.Block("body"), fb.Block("exit")
	fb.Br(floop)
	fb.SetBlock(floop)
	i := fb.Phi(ir.I64)
	fb.CondBr(fb.ICmp(ir.OpICmpSLT, i, ir.I64c(40)), fbody, fexit)
	fb.SetBlock(fbody)
	v := fb.Add(fb.Mul(i, fb.Param(0)), ir.I64c(1))
	fb.Store(v, fb.GEP(buf, i))
	i2 := fb.Add(i, ir.I64c(1))
	fb.Br(floop)
	ir.AddIncoming(i, ir.I64c(0), fentry)
	ir.AddIncoming(i, i2, fbody)
	fb.SetBlock(fexit)
	fb.Ret(fb.Load(ir.I64, fb.GEP(buf, ir.I64c(7))))

	main := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(main)
	head := b.AllocaN(20)
	b.Store(b.Param(0), b.GEP(head, ir.I64c(19)))
	r := b.Call(ir.I64, "fill", b.Param(0))
	mid := b.Block("mid")
	b.Br(mid)
	b.SetBlock(mid)
	tail := b.AllocaN(50)
	loop, body, exit := b.Block("loop"), b.Block("body"), b.Block("exit")
	b.Br(loop)
	b.SetBlock(loop)
	j := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, j, ir.I64c(50)), body, exit)
	b.SetBlock(body)
	at := b.GEP(tail, j)
	s2 := b.Add(s, b.Load(ir.I64, at))
	b.Store(b.Add(s2, r), at)
	j2 := b.Add(j, ir.I64c(1))
	b.Br(loop)
	ir.AddIncoming(j, ir.I64c(0), mid)
	ir.AddIncoming(j, j2, body)
	ir.AddIncoming(s, ir.I64c(0), mid)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	b.Call(ir.Void, "print_i64", s)
	b.Call(ir.Void, "print_i64", b.Load(ir.I64, b.GEP(tail, ir.I64c(49))))
	b.Call(ir.Void, "print_i64", b.Load(ir.I64, b.GEP(head, ir.I64c(19))))
	b.Ret(s)
	return mustCompile(t, m), v.ID
}

// TestSnapshotNothingAboveMemTop: a snapshot stores and restores nothing
// at or above memTop. On buildReclaim, with a snapshot at every block
// entry, trials from every snapshot on one reused machine, whose memory
// holds earlier trials' words above memTop, equal fresh runs, masked
// faults in the popped frame converge, and a machine restored to any
// snapshot converges there.
func TestSnapshotNothingAboveMemTop(t *testing.T) {
	p, stored := buildReclaim(t)
	args := []uint64{3}
	g := Run(p, args, Options{Profile: true, CheckpointInterval: 1})
	c := g.Checkpoints
	if g.Trap != nil || c.end == nil {
		t.Fatalf("bad golden: trap %v", g.Trap)
	}
	tops := map[int]bool{}
	for _, s := range c.snaps {
		if len(s.mem.cs) != (s.mem.n+chunkWords-1)/chunkWords {
			t.Fatalf("snapshot at dyn %d: %d memory chunks for memTop %d", s.dyn, len(s.mem.cs), s.mem.n)
		}
		tops[s.mem.n] = true
	}
	for _, top := range []int{61, 21, 71} { // in fill, after its return, in the tail loop
		if !tops[top] {
			t.Fatalf("no snapshot at memTop %d: %v", top, tops)
		}
	}

	budget := trialBudget(g)
	m := NewInjector(p)
	converged := c.Stats().Converged
	planRNG := xrand.New(5)
	for _, s := range c.snaps {
		for seed := uint64(1); seed <= 3; seed++ {
			plan := fault.SampleDynamic(planRNG, g.DynCount) // bit drawn at injection
			plan.TargetDyn = s.dyn + 1
			want := Run(p, args, Options{Plan: &plan, FaultRNG: xrand.New(seed), MaxDyn: budget})
			sameResult(t, "dynamic", want, m.Trial(args, c, &plan, xrand.New(seed), budget))
		}
	}
	for occ := int64(1); occ <= g.InstrCounts[stored]; occ++ {
		plan := fault.Plan{Mode: fault.ModeStatic, StaticID: stored, Occurrence: occ, Bit: 4}
		want := Run(p, args, Options{Plan: &plan, MaxDyn: budget})
		sameResult(t, "static", want, m.Trial(args, c, &plan, xrand.New(1), budget))
	}
	if c.Stats().Converged-converged < g.InstrCounts[stored]-1 {
		t.Fatalf("faults in fill's popped frame did not converge: %+v", c.Stats())
	}

	const sentinel = 0xdeadbeef
	e := m.e
	for _, s := range c.snaps {
		e.resetFast(0)
		if len(e.mem) < 2*s.mem.n {
			e.growMem(e.memTop, int64(2*s.mem.n))
		}
		for i := range e.mem {
			e.mem[i] = sentinel
		}
		s.restoreInto(e)
		for i := s.mem.n; i < len(e.mem); i++ {
			if e.mem[i] != sentinel {
				t.Fatalf("snapshot at dyn %d restored word %d above memTop %d", s.dyn, i, s.mem.n)
			}
		}
		e.toFused()
		e.armConvergence(c)
		if e.conv.at != s.dyn || !e.converge() {
			t.Fatalf("machine restored to the snapshot at dyn %d does not converge there", s.dyn)
		}
		if e.dyn != g.DynCount || !OutputEqual(e.output, g.Output) {
			t.Fatalf("converged at dyn %d to dyn %d output %v, golden %d %v", s.dyn, e.dyn, e.output, g.DynCount, g.Output)
		}
	}
}

// TestCheckpointStatsBytes pins the byte count of sumloop's snapshots. The
// loop changes its registers and counts between any two snapshots, so
// each of the 15 snapshots holds a 160-byte header, one 24-byte frame,
// three 8-byte chunk-table entries and a fresh 256-byte chunk each of
// registers and counts; its one memory chunk (word 0) is allocated once
// and shared from then on.
func TestCheckpointStatsBytes(t *testing.T) {
	g := Run(buildSumLoop(t), []uint64{200}, Options{Profile: true, CheckpointInterval: 64})
	st := g.Checkpoints.Stats()
	if st.Snapshots != 15 || st.Bytes != 15*(160+24+3*8+2*256)+256 {
		t.Fatalf("%d snapshots hold %d bytes, want 15 holding %d", st.Snapshots, st.Bytes, 15*(160+24+3*8+2*256)+256)
	}
	var sum CheckpointStats
	sum.Accumulate(st)
	sum.Accumulate(st)
	if sum.Bytes != 2*st.Bytes {
		t.Fatalf("accumulated %d bytes, want %d", sum.Bytes, 2*st.Bytes)
	}
}

// TestSnapshotChunksConcurrentTrials runs four workers' trials at once off
// one golden's shared chunks, each on its own machine, and requires every
// result to equal a fresh run and every chunk to stay as captured. Under
// -race it also shows that trials only read shared chunks.
func TestSnapshotChunksConcurrentTrials(t *testing.T) {
	p, stored := buildReclaim(t)
	args := []uint64{5}
	g := Run(p, args, Options{Profile: true, CheckpointInterval: 9})
	c := g.Checkpoints
	budget := trialBudget(g)
	type chunkSet struct{ mem, regs [][chunkWords]uint64 }
	before := make([]chunkSet, len(c.snaps))
	for k, s := range c.snaps {
		before[k] = chunkSet{chunkCopies(s.mem), chunkCopies(s.regs)}
	}
	rng := xrand.New(11)
	plans := make([]fault.Plan, 48)
	for i := range plans {
		if i%2 == 0 {
			plans[i] = fault.SampleDynamic(rng, g.DynCount)
		} else {
			plans[i] = fault.SampleStatic(rng, stored, ir.I64, g.InstrCounts[stored])
		}
	}
	wants := make([]*Result, len(plans))
	for i := range plans {
		wants[i] = Run(p, args, Options{Plan: &plans[i], FaultRNG: xrand.New(uint64(i)), MaxDyn: budget})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewInjector(p)
			for i := range plans {
				sameResult(t, "concurrent", wants[i], m.Trial(args, c, &plans[i], xrand.New(uint64(i)), budget))
			}
		}()
	}
	wg.Wait()
	for k, s := range c.snaps {
		if !slices.Equal(chunkCopies(s.mem), before[k].mem) || !slices.Equal(chunkCopies(s.regs), before[k].regs) {
			t.Fatalf("snapshot at dyn %d: chunks changed under concurrent trials", s.dyn)
		}
	}
	if st := c.Stats(); st.Restored == 0 || st.Converged == 0 {
		t.Fatalf("trials neither resumed nor converged: %+v", st)
	}
}
