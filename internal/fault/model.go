package fault

// This file is the fault-model registry: the paper's single bit flip stays
// the default, and the corruption patterns from the GPU SDC anatomy line of
// work (double flips, contiguous multi-bit bursts, value-domain corruptions)
// become first-class campaign dimensions behind one interface.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/xrand"
)

// Model is a pluggable fault model. Sample draws one whole-program injection
// plan from the campaign's per-trial RNG stream, and Apply corrupts the
// targeted value at injection time (called by the interpreter with the same
// stream). Implementations must be deterministic functions of their RNG so
// campaign tallies stay bit-identical across workers, batch sizes and
// shards.
type Model interface {
	// Name is the stable registry key, used in CLI flags and cache keys.
	Name() string
	// Sample draws a plan targeting a uniform dynamic instruction index in
	// [1, totalDyn]. It panics when totalDyn <= 0.
	Sample(rng *xrand.RNG, totalDyn int64) Plan
	// Apply corrupts a canonical slot value of type ty and returns the
	// re-canonicalized result. It must change the value: a no-op corruption
	// would silently tally the trial as a fault-free Benign run.
	Apply(ty ir.Type, bits uint64, rng *xrand.RNG) uint64
}

// DefaultModelName names the paper's single-bit-flip model, the default for
// every campaign entry point.
const DefaultModelName = "bitflip"

// The four built-in models.
var (
	// SingleFlip is the paper's model: one uniform bit within the result's
	// width. Its plans keep Plan.Model nil, so campaigns run the exact
	// historical injection path — same RNG draws, same corrupted values.
	SingleFlip Model = singleFlip{}
	// DoubleFlip flips two distinct bits of the same value (the §3.1.3
	// multi-bit discussion). Its plans also keep Plan.Model nil and reuse
	// the historical pending-second-bit path.
	DoubleFlip Model = doubleFlip{}
	// BurstFlip flips a contiguous run of 2..8 bits (clipped at the type
	// width), modeling datapath bursts that single-bit ECC cannot correct.
	BurstFlip Model = burstFlip{}
	// ValueCorrupt perturbs the value domain instead of uniform bits: sign
	// flip or exponent perturbation on floats, zeroing on integers (all-ones
	// when the value is already zero, so the corruption never no-ops).
	ValueCorrupt Model = valueCorrupt{}
)

// modelOrder fixes the presentation order of the registry.
var modelOrder = []Model{SingleFlip, DoubleFlip, BurstFlip, ValueCorrupt}

// Models returns the built-in models in presentation order.
func Models() []Model {
	out := make([]Model, len(modelOrder))
	copy(out, modelOrder)
	return out
}

// ModelNames returns the registered model names, sorted.
func ModelNames() []string {
	names := make([]string, 0, len(modelOrder))
	for _, m := range modelOrder {
		names = append(names, m.Name())
	}
	sort.Strings(names)
	return names
}

// ModelByName resolves a registered model name.
func ModelByName(name string) (Model, bool) {
	for _, m := range modelOrder {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// CampaignModel resolves a CLI -fault-model value for campaign entry points.
// The empty string and the default single-flip name return a nil Model —
// campaigns treat nil as the hardcoded default path, which is byte-identical
// to the pre-interface streams — and unknown names return an error listing
// the registry.
func CampaignModel(name string) (Model, error) {
	if name == "" || name == DefaultModelName {
		return nil, nil
	}
	if m, ok := ModelByName(name); ok {
		return m, nil
	}
	return nil, fmt.Errorf("fault: unknown fault model %q (available: %s)",
		name, strings.Join(ModelNames(), ", "))
}

// ModelKey normalizes a model name for cache keys: the empty string (the
// "default" spelling used by specs that omit the field) maps to the
// single-flip name so both spellings share cache entries.
func ModelKey(name string) string {
	if name == "" {
		return DefaultModelName
	}
	return name
}

type singleFlip struct{}

func (singleFlip) Name() string { return DefaultModelName }

func (singleFlip) Sample(rng *xrand.RNG, totalDyn int64) Plan {
	// Plan.Model stays nil on purpose: the interpreter's default path is the
	// single-flip model, and leaving it nil keeps the plan byte-identical to
	// a pre-interface SampleDynamic plan.
	return SampleDynamic(rng, totalDyn)
}

func (singleFlip) Apply(ty ir.Type, bits uint64, rng *xrand.RNG) uint64 {
	return Flip(ty, bits, RandomBit(rng, ty))
}

type doubleFlip struct{}

func (doubleFlip) Name() string { return "doubleflip" }

func (doubleFlip) Sample(rng *xrand.RNG, totalDyn int64) Plan {
	// Model stays nil here too: the pending-second-bit plan drives the
	// interpreter's built-in double-flip injection path.
	return SampleDynamicMultiBit(rng, totalDyn)
}

func (doubleFlip) Apply(ty ir.Type, bits uint64, rng *xrand.RNG) uint64 {
	first := RandomBit(rng, ty)
	out := Flip(ty, bits, first)
	if second, ok := RandomSecondBit(rng, ty, first); ok {
		out = Flip(ty, out, second)
	}
	return out
}

// maxBurstLen caps the contiguous burst width; bursts past 8 bits are not
// observed escaping ECC in the SDC anatomy measurements.
const maxBurstLen = 8

type burstFlip struct{}

func (burstFlip) Name() string { return "burst" }

func (m burstFlip) Sample(rng *xrand.RNG, totalDyn int64) Plan {
	p := SampleDynamic(rng, totalDyn)
	p.Model = m
	return p
}

func (burstFlip) Apply(ty ir.Type, bits uint64, rng *xrand.RNG) uint64 {
	n := ty.Bits()
	start := int(RandomBit(rng, ty))
	max := n
	if max > maxBurstLen {
		max = maxBurstLen
	}
	// Burst length 2..max, clipped at the type width below; 1-bit types
	// degrade to a single flip without consuming a length draw.
	length := 1
	if max >= 2 {
		length = 2 + rng.Intn(max-1)
	}
	v := bits
	for b := start; b < start+length && b < n; b++ {
		v ^= 1 << uint(b)
	}
	return ir.CanonInt(ty, v)
}

type valueCorrupt struct{}

func (valueCorrupt) Name() string { return "value" }

func (m valueCorrupt) Sample(rng *xrand.RNG, totalDyn int64) Plan {
	p := SampleDynamic(rng, totalDyn)
	p.Model = m
	return p
}

func (valueCorrupt) Apply(ty ir.Type, bits uint64, rng *xrand.RNG) uint64 {
	if ty.IsFloat() {
		if rng.Intn(2) == 0 {
			return Flip(ty, bits, uint8(ty.Bits()-1)) // sign flip
		}
		// Exponent perturbation: one uniform bit of the 11-bit f64 exponent
		// field (bits 52..62).
		return Flip(ty, bits, uint8(52+rng.Intn(11)))
	}
	// Integers and pointers: zero the value; all-ones when already zero so
	// the corruption never silently no-ops.
	if z := ir.CanonInt(ty, 0); bits != z {
		return z
	}
	return ir.CanonInt(ty, ^uint64(0))
}
