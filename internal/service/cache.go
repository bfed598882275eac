package service

// The cross-job work cache. Jobs on the same benchmark and input pay for
// the expensive shared prefix — building the program, the golden run with
// its checkpoint set, and the compose profile store — once per process.
// All three layers sit on parallel.Memo, so concurrent jobs that race on
// the same key block on a single in-flight computation (single-flight) and
// share its result; the golden memo is LRU-capped for long-running servers.
//
// Cache keys follow the compose convention: program hash ⨯ input ⨯
// checkpoint interval ⨯ fault model, '\x1f'-joined. The program
// hash is the compose partition hash (FNV-64a over the printed module), so
// two benchmarks that somehow compiled identical programs would share
// goldens, and a changed program can never alias a stale one.

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/prog"
)

// benchEntry is one built benchmark plus its program-identity hash.
type benchEntry struct {
	b    *prog.Benchmark
	hash string
}

// goldenEntry is one cached golden run. setupDyn is the dynamic-instruction
// cost the computation actually paid (golden run, plus the checkpoint replay
// in auto mode) — the work a cache hit eliminates.
type goldenEntry struct {
	g        *campaign.Golden
	setupDyn int64
}

// workCache is the process-wide cache layer shared by every job and shard
// request a server executes.
type workCache struct {
	benches  parallel.Memo[*benchEntry]
	goldens  parallel.Memo[*goldenEntry]
	profiles *compose.Cache
}

func newWorkCache(goldenCap, profileCap int) *workCache {
	c := &workCache{profiles: compose.NewCache(profileCap)}
	c.goldens.SetCap(goldenCap)
	return c
}

// bench returns the built benchmark for a pre-validated name (prog.Build
// panics on unknown names, so validation happens at job admission). The
// compile and the partition hash are paid once per name per process.
func (c *workCache) bench(name string) *benchEntry {
	e, _ := c.benches.Get(name, func() (*benchEntry, error) {
		b := prog.Build(name)
		return &benchEntry{b: b, hash: compose.NewPartition(b.Prog).Hash}, nil
	})
	return e
}

// goldenKey builds the golden cache key. Inputs key by their exact float64
// bit patterns, so two inputs compare equal iff their encoded runs would.
// model is the normalized fault-model name (fault.ModelKey): the golden run
// itself is fault-free, but keying it per model keeps coordinator and peer
// workers deriving identical keys from the job spec alone.
func goldenKey(hash string, input []float64, interval int64, model string) string {
	var sb strings.Builder
	sb.WriteString(hash)
	sb.WriteByte(0x1f)
	for i, v := range input {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
	}
	sb.WriteByte(0x1f)
	sb.WriteString(strconv.FormatInt(interval, 10))
	sb.WriteByte(0x1f)
	sb.WriteString(fault.ModelKey(model))
	return sb.String()
}

// golden returns the (possibly cached) golden run of be on input with the
// given checkpoint interval. cached reports whether THIS call was served
// from the memo — under concurrent identical jobs exactly one caller
// computes (and pays setupDyn), every other caller blocks on it and gets
// cached=true. Invalid inputs cache their error, so a bad input costs its
// failed golden run once, not once per job.
func (c *workCache) golden(be *benchEntry, input []float64, interval int64, model string) (e *goldenEntry, cached bool, err error) {
	computed := false
	e, err = c.goldens.Get(goldenKey(be.hash, input, interval, model), func() (*goldenEntry, error) {
		computed = true
		g, err := campaign.NewGoldenCheckpointed(be.b.Prog, be.b.Encode(input), be.b.MaxDyn, interval)
		if err != nil {
			return nil, err
		}
		setup := g.DynCount
		if interval == campaign.CheckpointAuto {
			// Auto mode runs the golden twice: the profiled run plus the
			// checkpoint replay (EnsureCheckpoints).
			setup *= 2
		}
		return &goldenEntry{g: g, setupDyn: setup}, nil
	})
	return e, !computed, err
}

// goldenStats exposes the golden memo tallies for metrics and tests.
func (c *workCache) goldenStats() parallel.MemoStats { return c.goldens.Stats() }

// profileStats exposes the compose profile cache tallies.
func (c *workCache) profileStats() parallel.MemoStats { return c.profiles.Stats() }
