package main

// The campaign workload: whole-program bitflip campaigns through
// campaign.OverallParallel on each kernel's checkpointed reference-input
// golden. Operations alternate between the per-trial path (BatchSize 0) and
// the lockstep path (BatchSize 64); a class is (kernel, path).

import (
	"fmt"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/prog"
)

type campaignConfig struct {
	kernels []string
	trials  int
	rounds  int
}

// campaignRoundSeconds is the nominal time of one round (every kernel on
// both paths at 1000 trials) on the reference host.
const campaignRoundSeconds = 5.5

var campaignPaths = []struct {
	name  string
	batch int
}{{"per_trial", 0}, {"batch64", 64}}

type campaignSetup struct {
	benches map[string]*prog.Benchmark
	goldens map[string]*campaign.Golden
}

// setupCampaign builds and compiles the kernels and records each one's
// checkpointed reference-input golden.
func setupCampaign(names []string, tr *tracer) (*campaignSetup, error) {
	s := &campaignSetup{benches: buildKernels(names, tr), goldens: map[string]*campaign.Golden{}}
	for _, n := range names {
		b := s.benches[n]
		_, end := tr.begin("campaign.NewGoldenCheckpointed", 0, 0)
		g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
		end()
		if err != nil {
			return nil, fmt.Errorf("campaign: %s reference golden: %w", n, err)
		}
		s.goldens[n] = g
	}
	return s, nil
}

func runCampaign(cfg *runConfig, cc campaignConfig, r *report) error {
	var setups []float64
	var st *campaignSetup
	timeSetup := func() error {
		var s *campaignSetup
		var err error
		_, norm := timed(func() { s, err = setupCampaign(cc.kernels, cfg.tr) })
		if err != nil {
			return err
		}
		setups = append(setups, norm)
		if st == nil {
			st = s
		}
		return nil
	}

	all, raw, traced, untraced := classSamples{}, classSamples{}, classSamples{}, classSamples{}
	perPath := map[string]classSamples{"per_trial": {}, "batch64": {}}
	first := map[string]campaign.Counts{}
	var modeled, executed float64
	rt := readRuntime()
	ops := 0
	for k := 0; k < cc.rounds; k++ {
		if err := timeSetup(); err != nil {
			return err
		}
		rd := cfg.beginRound(k)
		for _, name := range cc.kernels {
			for _, path := range campaignPaths {
				ops++
				r.attempted++
				b, g := st.benches[name], st.goldens[name]
				class := name + "/" + path.name
				before := g.CheckpointStats()
				opID := cfg.nextOp()
				_, end := rd.tr.begin("campaign.OverallParallel", rd.id, opID)
				var c campaign.Counts
				d, norm := timed(func() {
					c = campaign.OverallParallel(b.Prog, g, cc.trials, campaign.ParallelOptions{
						Workers:   1,
						Seed:      deriveSeed(cfg.seed, "campaign/"+name),
						BatchSize: path.batch,
					})
				})
				end()
				after := g.CheckpointStats()
				if c.Trials != cc.trials {
					r.fail("campaign %s: ran %d of %d trials", class, c.Trials, cc.trials)
					continue
				}
				// Per-trial and batch-64 ops on the same (kernel, seed) must
				// tally identically: the repo's bit-identity contract.
				if f, ok := first[name]; !ok {
					first[name] = c
				} else if f != c {
					r.fail("campaign %s: tally %+v differs from the kernel's first op %+v", class, c, f)
					continue
				}
				modeled += float64(c.DynInstrs)
				executed += float64(c.DynInstrs - (after.SkippedDyn - before.SkippedDyn) + (after.TrunkDyn - before.TrunkDyn))
				perPath[path.name].add(name, norm/float64(cc.trials))
				raw.add(class, d)
				rd.add(cfg, class, norm, all, traced, untraced)
			}
		}
		rd.end()
	}
	for len(setups) < minSetups {
		if err := timeSetup(); err != nil {
			return err
		}
	}
	rtDelta := readRuntime().sub(rt)
	if len(first) == 0 {
		return fmt.Errorf("campaign: no campaign succeeded")
	}

	var sdcs, halfwidths []float64
	for _, name := range cc.kernels {
		if c, ok := first[name]; ok {
			lo, hi := c.SDCInterval()
			sdcs = append(sdcs, c.SDCProbability())
			halfwidths = append(halfwidths, (hi-lo)/2)
		}
	}
	p50 := all.geoClassQuantile(0.5)
	p75, beyond := all.tail(p50)
	r.e2e["setup_s"] = median(setups)
	r.e2e["latency_p50_ms"] = p50 * 1e3
	r.e2e["latency_p75_ms"] = p75 * 1e3
	r.e2e["sdc_bound_mean"] = mean(sdcs)
	r.e2e["halfwidth_mean"] = mean(halfwidths)
	r.note("latency_p75_ms.beyond", "count", float64(beyond))
	r.note("trials_per_s", "1/s", float64(cc.trials)/p50)
	r.note("trials_per_s.wall", "1/s", float64(cc.trials)/raw.geoClassQuantile(0.5))
	r.note("campaign.samples_per_class_min", "count", float64(all.minClassSize()))
	r.note("campaign.setups", "count", float64(len(setups)))

	r.layer["campaign.trial_us.per_trial"] = perPath["per_trial"].geoClassQuantile(0.5) * 1e6
	r.layer["campaign.trial_us.batch64"] = perPath["batch64"].geoClassQuantile(0.5) * 1e6
	r.layer["campaign.replayed_dyn_frac"] = executed / modeled
	cfg.finishMain(r, traced, untraced, rtDelta, ops)
	runtime.KeepAlive(st)
	return nil
}
