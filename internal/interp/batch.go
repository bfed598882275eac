package interp

import (
	"container/heap"
	"fmt"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// Lockstep batch execution. A fault-injection campaign resumes many trials
// from the same golden checkpoint and replays the same fault-free stretch
// up to each injection point; BatchRun pays that stretch once. A single
// profiled trunk runs the generic engine forward from the shared base
// snapshot on the unfused code arrays and captures a copy-on-write fork —
// sharing every chunk equal to the previous fork's, exactly like interval
// checkpoints — at an instruction boundary strictly before each trial's
// injection point. Every trial then runs on the trial machine
// (Injector) from its fork, so the generic engine covers only the short
// fork-to-injection window before the fast-path tail.
//
// Determinism: the fork points are functions of the dyn clock and the
// trials' plans alone, each trial consumes only its own RNG (first at
// injection, same as the serial path), and a fork restore reproduces the
// golden prefix bit for bit — so results are identical to per-trial
// Injector.Trial for every batch size and worker count.

// BatchTrial is one planned trial of a lockstep batch.
type BatchTrial struct {
	// Plan is the trial's fault plan. Its injection point must lie strictly
	// after the batch's base snapshot (Checkpoints.ForPlan selects such
	// snapshots); dynamic- and static-mode plans are supported.
	Plan fault.Plan
	// RNG resolves the plan's deferred bit draws at injection time. Each
	// trial carries its own stream so outcomes are independent of how the
	// campaign groups trials into batches.
	RNG *xrand.RNG
}

// BatchStats summarizes one BatchRun for the Checkpoints usage counters.
type BatchStats struct {
	// Trials is the batch size; Forked counts trials resumed from a COW
	// fork of the shared trunk; Fallback counts trials run individually
	// because the trunk ended (return, trap or budget) before their fork.
	Trials   int
	Forked   int
	Fallback int
	// TrunkDyn is the dynamic instructions the shared trunk executed once
	// on behalf of the whole batch; ForkSkipped sums the forked trials'
	// fork.Dyn() — prefix work no trial had to re-execute.
	TrunkDyn    int64
	ForkSkipped int64
	// FallbackRestored/FallbackSkipped cover fallback trials that still
	// resumed from the base snapshot.
	FallbackRestored int
	FallbackSkipped  int64
}

// forkEvent is one pending trial fork, keyed by a conservative lower bound
// on the dyn value at which the trial's fault can fire. Dynamic plans have
// an exact bound (TargetDyn); for static plans the bound is re-tightened at
// every boundary from the trunk's live occurrence counts, which grow by at
// most one per dynamic instruction.
type forkEvent struct {
	idx int
	due int64
}

type forkHeap []forkEvent

func (h forkHeap) Len() int { return len(h) }
func (h forkHeap) Less(a, b int) bool {
	if h[a].due != h[b].due {
		return h[a].due < h[b].due
	}
	return h[a].idx < h[b].idx
}
func (h forkHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *forkHeap) Push(x interface{}) { *h = append(*h, x.(forkEvent)) }
func (h *forkHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

// batchCanceled reports whether a batch's Done channel has closed. A nil
// channel — the no-cancellation case — short-circuits before the select,
// so uncancellable batches pay one pointer compare per poll.
func batchCanceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// BatchRun executes a batch of fault-injection trials that share the base
// snapshot (nil to share the program entry) in lockstep, calling report
// once per trial index, in index order, with a Result that is only valid
// during the call — its Output buffer is reused by the next trial. c is the
// golden's checkpoints (nil: none), which base, if set, must belong to;
// trial tails that re-join the golden at one of its snapshots end there,
// as in Injector.Trial. A base past opts.MaxDyn is ignored: the batch then
// starts from the entry, as Injector.Trial does. opts supplies the
// per-trial limits (MaxDyn, MaxMemWords, MaxDepth); Plan, FaultRNG,
// Profile, TrackPropagation and CheckpointInterval must be unset — trials
// carry their own plans and streams. Static-mode trials require a profiled
// base (or a base-less batch), like RunFrom. The shared trunk runs the
// unfused code arrays, as every generic run does, so its forks sit at
// unfused instruction boundaries and each trial hands off to the fast loop
// as Injector.Trial does.
//
// When opts.Done closes mid-batch the trunk suspends at its next boundary
// and the trial loop stops before its next trial: trials already reported
// are complete and valid, the rest are never reported. Callers that need
// to distinguish completed from skipped trials must track which indices
// report delivered.
func BatchRun(p *Program, args []uint64, c *Checkpoints, base *Snapshot, trials []BatchTrial, opts Options, report func(i int, r *Result)) BatchStats {
	if opts.Plan != nil || opts.FaultRNG != nil || opts.Profile || opts.TrackPropagation || opts.CheckpointInterval > 0 {
		panic("interp: BatchRun options must not set Plan, FaultRNG, Profile, TrackPropagation or CheckpointInterval")
	}
	st := BatchStats{Trials: len(trials)}
	if len(trials) == 0 {
		return st
	}
	// A base past the budget does not qualify, as in Checkpoints.startFor:
	// a run from the entry exceeds the budget before it gets there.
	if base != nil && opts.MaxDyn > 0 && base.dyn > opts.MaxDyn {
		base = nil
	}

	// The trunk profiles only when a static-mode plan needs occurrence
	// counts in its fork; dynamic-only batches skip the counting (and may
	// share an unprofiled base).
	trunkProfile := false
	for i := range trials {
		switch m := trials[i].Plan.Mode; m {
		case fault.ModeDynamic:
		case fault.ModeStatic:
			if sid := trials[i].Plan.StaticID; sid < 0 || sid >= p.numInstrs {
				panic(fmt.Sprintf("interp: BatchRun static plan targets instruction %d of %d", sid, p.numInstrs))
			}
			trunkProfile = true
		default:
			panic(fmt.Sprintf("interp: BatchRun on unsupported fault mode %d", m))
		}
	}

	te := newExec(p, Options{
		MaxDyn: opts.MaxDyn, MaxMemWords: opts.MaxMemWords, MaxDepth: opts.MaxDepth,
		Profile: trunkProfile,
	})
	startDyn := int64(0)
	if base != nil {
		base.restoreInto(te)
		startDyn = base.dyn
	} else {
		entry := p.funcs[p.entry]
		if len(args) != entry.nParams {
			panic(fmt.Sprintf("interp: entry %s takes %d args, got %d", entry.name, entry.nParams, len(args)))
		}
		te.pushFrame(p.entry)
		copy(te.regSlab[:len(args)], args)
	}

	// Seed the fork events with each trial's initial due bound; the base
	// must be strictly before every injection point (the ForPlan contract).
	h := make(forkHeap, 0, len(trials))
	for i := range trials {
		pl := &trials[i].Plan
		var due int64
		if pl.Mode == fault.ModeDynamic {
			due = pl.TargetDyn
		} else {
			due = startDyn + pl.Occurrence
			if base != nil {
				if !base.profiled() {
					panic("interp: static-mode batch trial on a snapshot of an unprofiled run")
				}
				due -= base.counts.at(pl.StaticID)
			}
		}
		if due <= startDyn {
			panic("interp: BatchRun trial injects at or before the base snapshot")
		}
		h = append(h, forkEvent{idx: i, due: due})
	}
	heap.Init(&h)

	// Trunk: run forward, capturing one COW fork per boundary at which at
	// least one trial comes due. slack is the worst-case dyn advance of a
	// single dispatch slot, so arming nextCkpt = due-slack guarantees a
	// boundary fires at dyn < due — strictly before the injection.
	forks := make([]*Snapshot, len(trials))
	slack := p.maxSlotDyn
	lastSnap := base
	te.onBoundary = func() bool {
		if batchCanceled(opts.Done) {
			return false // suspend; the trial loop below also stops
		}
		var snap *Snapshot
		// Drain until the heap MINIMUM exceeds dyn+slack. Keys are lower
		// bounds that only tighten, so a merely re-keyed event must be
		// re-compared against the other (still stale) keys — breaking after
		// one re-sift would let it resurface only after its occurrence
		// already executed, capturing a fork past the injection point.
		for h.Len() > 0 && h[0].due <= te.dyn+slack {
			ev := &h[0]
			due := ev.due
			if pl := &trials[ev.idx].Plan; pl.Mode == fault.ModeStatic {
				due = te.dyn + (pl.Occurrence - te.counts[pl.StaticID])
			}
			if due > te.dyn+slack {
				// Stale key undershot: re-key to the tightened bound and
				// re-examine the new top.
				ev.due = due
				heap.Fix(&h, 0)
				continue
			}
			if snap == nil {
				snap, _ = te.captureSnapshot(lastSnap)
				lastSnap = snap
			}
			forks[ev.idx] = snap
			heap.Pop(&h)
		}
		if h.Len() == 0 {
			return false // every fork captured; suspend the trunk
		}
		te.nextCkpt = h[0].due - slack
		return true
	}
	te.nextCkpt = h[0].due - slack
	_, trunkOK := te.run()
	st.TrunkDyn = te.dyn - startDyn
	_ = trunkOK // trunk end states (suspended, returned, trapped) all leave
	// unforked trials to the fallback below.

	// Trials, in index order, on one trial machine: forked trials start
	// from their fork, the rest (the trunk ended before their fork) from
	// the base snapshot or the program entry.
	m := newInjector(p, opts)
	for i := range trials {
		if batchCanceled(opts.Done) {
			break // remaining trials stay unreported
		}
		start := forks[i]
		switch {
		case start != nil:
			st.Forked++
			st.ForkSkipped += start.dyn
		case base != nil:
			start = base
			st.Fallback++
			st.FallbackRestored++
			st.FallbackSkipped += base.dyn
		default:
			st.Fallback++
		}
		report(i, m.run(c, start, args, &trials[i].Plan, trials[i].RNG, opts.MaxDyn))
	}
	return st
}
