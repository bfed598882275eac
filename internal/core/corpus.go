package core

import (
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// This file implements the paper's §7.1.1 use case: generating SDC
// campaign corpora for error-propagation modelling. Studies that train
// models on SDC samples need many FI trials that actually end in SDCs;
// running the fault injector under an SDC-bound input raises the hit rate —
// the paper estimates ~32x fewer trials for Xsbench — so the same corpus
// costs a fraction of the FI time.

// SDCRecord is one SDC-producing fault, the unit of an error-propagation
// modelling corpus.
type SDCRecord struct {
	// StaticID is the faulted instruction; Bit the flipped bit position.
	StaticID int
	Bit      uint8
	// TargetDyn is the dynamic index of the faulted instance.
	TargetDyn int64
}

// CorpusResult reports a corpus-generation run.
type CorpusResult struct {
	Records []SDCRecord
	// Trials is the number of FI trials consumed; DynInstrs their cost.
	Trials    int
	DynInstrs int64
}

// HitRate returns the fraction of trials that produced an SDC.
func (c *CorpusResult) HitRate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(len(c.Records)) / float64(c.Trials)
}

// GenerateSDCCorpus runs fault-injection trials under the given input until
// target SDC records are collected (or maxTrials is exhausted, if positive).
func GenerateSDCCorpus(b *prog.Benchmark, input []float64, target, maxTrials int, rng *xrand.RNG) (*CorpusResult, error) {
	g, err := campaign.NewGolden(b.Prog, b.Encode(input), b.MaxDyn)
	if err != nil {
		return nil, err
	}
	res := &CorpusResult{}
	m := interp.NewInjector(b.Prog)
	for len(res.Records) < target {
		if maxTrials > 0 && res.Trials >= maxTrials {
			break
		}
		plan := fault.SampleDynamic(rng, g.DynCount)
		outcome, r := campaign.Classify(m, g, &plan, rng, nil)
		res.Trials++
		res.DynInstrs += r.DynCount
		if outcome == campaign.SDC {
			res.Records = append(res.Records, SDCRecord{
				StaticID:  r.InjectedID,
				Bit:       r.InjectedBit,
				TargetDyn: plan.TargetDyn,
			})
		}
	}
	return res, nil
}
