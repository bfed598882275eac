// Package core implements PEPPA-X itself — the paper's primary
// contribution (§4): the end-to-end pipeline that finds SDC-bound program
// inputs.
//
// The pipeline follows Figure 3 of the paper:
//
//  1. Fuzz for a small FI input (①): starting from narrow numeric ranges
//     and widening, find an input that reaches the reference input's code
//     coverage with a small dynamic workload.
//  2. Prune the FI space (②) via static dataflow grouping (analysis pkg).
//  3. Derive the SDC sensitivity distribution (③) with ~30 faults per
//     group representative on the small FI input (sensitivity pkg).
//  4. Fuzz for the SDC-bound input with a genetic engine (④, ga pkg) whose
//     fitness (⑤) is the accumulated SDC vulnerability potential
//     Σᵢ Pᵢ·(Nᵢ/N_total) from a single profiled execution per candidate —
//     no statistical fault injection during the search.
//  5. One final statistical FI campaign on the reported SDC-bound input.
//
// The package also implements the paper's baseline (§5.1): random input
// generation where every candidate is evaluated with a full statistical FI
// campaign, compared against PEPPA-X under an equal search budget measured
// in dynamic instructions executed.
package core

import (
	"time"
)

// Cost breaks down where a search spends its budget. Dynamic-instruction
// counts are the machine-independent cost currency (the paper reports
// wall-clock hours on its testbed; relative costs are what transfer).
// SearchDyn charges every GA evaluation its profiled run's dyn, including
// evaluations the fitness memo answered without running
// (Result.SearchDynExecuted is the executed part).
type Cost struct {
	SmallInputDyn   int64
	SensitivityDyn  int64
	SearchDyn       int64
	FinalFIDyn      int64
	SmallInputTime  time.Duration
	SensitivityTime time.Duration
	SearchTime      time.Duration
	FinalFITime     time.Duration
}

// TotalDyn returns the total dynamic instructions spent.
func (c Cost) TotalDyn() int64 {
	return c.SmallInputDyn + c.SensitivityDyn + c.SearchDyn + c.FinalFIDyn
}

// TotalTime returns the total wall-clock time spent.
func (c Cost) TotalTime() time.Duration {
	return c.SmallInputTime + c.SensitivityTime + c.SearchTime + c.FinalFITime
}
