package main

// The service workload: jobs through an in-process service.New server
// (default config, two slots) on a loopback listener, sent by two
// closed-loop service.Clients. The job sequence comes in blocks: each block
// holds `pairs` fresh (kernel, input) pairs and runs each campaign pair
// twice, so close to half of all jobs repeat an earlier (kernel, input) —
// the property the golden and profile caches depend on. Campaign jobs run
// 300 trials; one in four is adaptive and one in four uses a non-default
// fault model. Sensitivity jobs run on ±3% perturbations of each kernel's
// reference input, so after the first one per kernel they compose from
// cached profiles. Latency is aggregated per job class (campaign variant
// and kernel, or sensitivity): a quantile pooled over every job jumps from
// one class's cost to the next when a burst slows a fifth of the jobs.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/xrand"
)

type serviceConfig struct {
	kernels []string
	blocks  int
	pairs   int // fresh (kernel, input) pairs per block
	trials  int
}

// serviceBlockSeconds is the nominal time of one block on the reference
// host; it turns --seconds into a fixed block count.
const serviceBlockSeconds = 0.35

// sensitivityPairs of each block's pairs carry sensitivity jobs; the rest
// carry campaign jobs.
const sensitivityPairs = 2

var serviceKernels = []string{"pathfinder", "particlefilter", "comd", "fft"}

func defaultServiceConfig(blocks int) serviceConfig {
	return serviceConfig{kernels: serviceKernels, blocks: blocks, pairs: 8, trials: 300}
}

var nonDefaultModels = []string{"doubleflip", "burst", "value"}

// liveServer is one running service on a loopback listener.
type liveServer struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer starts a default-config server and returns once /healthz has
// answered 200.
func startServer(hc *http.Client, tr *tracer) (*liveServer, error) {
	_, end := tr.begin("service.start", 0, 0)
	defer end()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	s := &liveServer{srv: service.New(service.Config{}), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	var lastErr error
	for i := 0; i < 1000; i++ {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		lastErr = err
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("service: healthz: %w", lastErr)
}

// stop drains the server and waits for its serve goroutine to end.
func (s *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.srv.Shutdown(ctx)
	<-s.done
}

type job struct {
	spec *service.JobSpec
	// class groups jobs of one shape: campaign variant and kernel, or
	// sensitivity, whose jobs cost about the same on every kernel.
	class  string
	repeat bool // an earlier job of the block used the same (kernel, input)
	res    *service.JobResult
	err    error
	submit time.Time
	start  time.Time // when the client saw job.start
	done   time.Time
}

// perturb scales every argument of in by a factor in [1-frac, 1+frac].
func perturb(b *prog.Benchmark, in []float64, frac float64, rng *xrand.RNG) []float64 {
	out := append([]float64(nil), in...)
	for i := range out {
		out[i] *= 1 + rng.Range(-frac, frac)
	}
	return b.ClampInput(out)
}

// validInput draws perturbations of base until one has a valid golden run.
func validInput(b *prog.Benchmark, base []float64, frac float64, rng *xrand.RNG) []float64 {
	for i := 0; i < 100; i++ {
		in := perturb(b, base, frac, rng)
		if _, err := campaign.NewGolden(b.Prog, b.Encode(in), b.MaxDyn); err == nil {
			return in
		}
	}
	return b.RefInput()
}

// jobBlock generates block k of the job sequence from the workload seed.
func jobBlock(seed uint64, k int, sc serviceConfig, benches map[string]*prog.Benchmark) []*job {
	rng := xrand.New(deriveSeed(seed, fmt.Sprintf("service/block/%d", k)))
	campaignJobs := 2 * (sc.pairs - sensitivityPairs)
	variants := make([]int, campaignJobs) // 0 flat bitflip, 1 other model, 2 adaptive
	for i := range variants {
		switch {
		case i < campaignJobs/4:
			variants[i] = 1
		case i < campaignJobs/2:
			variants[i] = 2
		}
	}
	rng.Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })

	var jobs []*job
	for p := 0; p < sc.pairs; p++ {
		name := sc.kernels[(k+p)%len(sc.kernels)]
		b := benches[name]
		sens := p >= sc.pairs-sensitivityPairs
		// Sensitivity inputs stay close to one pooled input per kernel.
		// Around a fresh input per block, whether a job reuses or re-measures
		// its cached profiles would flip with the seed, and with it the job's
		// cost, by a factor of thirty.
		frac := 0.1
		if sens {
			frac = 0.03
		}
		in := validInput(b, b.RefInput(), frac, rng)
		// A sensitivity pair runs once: two sensitivity jobs on one kernel at
		// the same time race in ir.Print, which rewrites the module's
		// instruction table while compose.NewPartition hashes it, and the
		// server then panics on a profile of the wrong segment.
		runs := 2
		if sens {
			runs = 1
		}
		for rep := 0; rep < runs; rep++ {
			spec := &service.JobSpec{Kind: service.KindCampaign, Bench: name, Input: in, Trials: sc.trials,
				Seed: rng.Uint64(), Workers: 1}
			class := ""
			if sens {
				spec.Kind, class = service.KindSensitivity, "sensitivity"
			} else {
				variant := "flat"
				switch variants[len(jobs)] {
				case 1:
					spec.FaultModel, variant = nonDefaultModels[rng.Intn(len(nonDefaultModels))], "model"
				case 2:
					spec.Adaptive, variant = true, "adaptive"
				}
				class = variant + "/" + name
			}
			jobs = append(jobs, &job{spec: spec, class: class})
		}
	}
	// Sensitivity pairs come last, so variants indexes campaign jobs only.
	// Submission order is a seeded shuffle; whichever job of a pair runs
	// second is the repeat.
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	seen := map[string]bool{}
	for _, j := range jobs {
		key := fmt.Sprint(j.spec.Bench, j.spec.Input)
		j.repeat = seen[key]
		seen[key] = true
	}
	return jobs
}

func runService(cfg *runConfig, sc serviceConfig, r *report) error {
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	var setups []float64
	var srv *liveServer
	var benches map[string]*prog.Benchmark
	coldSetup := func() error {
		var b map[string]*prog.Benchmark
		var s *liveServer
		var err error
		_, norm := timed(func() {
			b = buildKernels(sc.kernels, cfg.tr)
			s, err = startServer(hc, cfg.tr)
		})
		if err != nil {
			return err
		}
		setups = append(setups, norm)
		if srv == nil {
			srv, benches = s, b
		} else {
			s.stop()
		}
		return nil
	}
	if err := coldSetup(); err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	blocks := make([][]*job, sc.blocks)
	for k := range blocks {
		blocks[k] = jobBlock(cfg.seed, k, sc, benches)
	}
	setupEvery := max(1, sc.blocks/(minSetups-1))

	all, raw, traced, untraced := classSamples{}, classSamples{}, classSamples{}, classSamples{}
	var jobs []*job
	rt := readRuntime()
	for k, block := range blocks {
		if k > 0 && k%setupEvery == 0 {
			if err := coldSetup(); err != nil {
				return err
			}
		}
		rd := cfg.beginRound(k)
		// The block's jobs are scaled by the probes around the block.
		d, norm := timed(func() { runBlock(cfg, rd, hc, srv.base, block) })
		rd.end()
		scale := norm / d
		for _, j := range block {
			r.attempted++
			switch {
			case j.err != nil:
				r.fail("service %s %s: %v", j.spec.Kind, j.spec.Bench, j.err)
				continue
			case j.res.Canceled:
				r.fail("service %s %s: job canceled", j.spec.Kind, j.spec.Bench)
				continue
			}
			lat := j.done.Sub(j.submit).Seconds()
			raw.add(j.class, lat)
			rd.add(cfg, j.class, lat*scale, all, traced, untraced)
			jobs = append(jobs, j)
		}
	}
	for len(setups) < minSetups {
		if err := coldSetup(); err != nil {
			return err
		}
	}
	rtDelta := readRuntime().sub(rt)
	if len(jobs) == 0 {
		return fmt.Errorf("service: no job succeeded")
	}
	cfg.finishMain(r, traced, untraced, rtDelta, len(jobs))
	checkServiceJobs(r, jobs, benches)

	var sdcs, halfwidths, waits, runs, tokens []float64
	var reused, segments, measureDyn, sensJobs, hits, repeats float64
	for _, j := range jobs {
		if j.repeat {
			repeats++
		}
		waits = append(waits, j.start.Sub(j.submit).Seconds()*1e3)
		runs = append(runs, j.done.Sub(j.start).Seconds()*1e3)
		tokens = append(tokens, float64(j.res.Tokens))
		if j.res.GoldenCached {
			hits++
		}
		if s := j.res.Sensitivity; s != nil {
			sensJobs++
			reused += float64(s.Reused)
			segments += float64(s.Reused + s.Measured + s.Remeasured)
			measureDyn += float64(s.MeasureDyn)
			continue
		}
		// Campaign results are deterministic at any schedule; sensitivity
		// estimates depend on which profiles another job cached first.
		sdcs = append(sdcs, j.res.SDC)
		halfwidths = append(halfwidths, (j.res.Hi-j.res.Lo)/2)
	}
	p50 := all.geoClassQuantile(0.5)
	p75, beyond := all.tail(p50)
	if cfg.main && beyond < 10 {
		return fmt.Errorf("service: only %d jobs beyond p75; run longer", beyond)
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["latency_p50_ms"] = p50 * 1e3
	r.e2e["latency_p75_ms"] = p75 * 1e3
	r.e2e["sdc_bound_mean"] = mean(sdcs)
	r.e2e["halfwidth_mean"] = mean(halfwidths)
	r.note("latency_p50_ms.wall", "ms", raw.geoClassQuantile(0.5)*1e3)
	r.note("latency_p75_ms.beyond", "count", float64(beyond))
	r.note("service.jobs", "count", float64(len(jobs)))
	r.note("service.classes", "count", float64(len(all)))
	r.note("service.setups", "count", float64(len(setups)))
	r.note("service.repeat_frac", "ratio", repeats/float64(len(jobs)))

	r.layer["compose.reuse_ratio"] = reused / segments
	r.layer["compose.measure_dyn_per_job"] = measureDyn / sensJobs
	r.layer["service.queue_wait_ms"] = median(waits)
	r.layer["service.run_ms"] = median(runs)
	r.layer["service.golden_hit_ratio"] = hits / float64(len(jobs))
	r.layer["service.tokens_per_job"] = mean(tokens)
	return nil
}

// runBlock sends one block's jobs from two closed-loop clients and returns
// once both have finished.
func runBlock(cfg *runConfig, rd round, hc *http.Client, base string, block []*job) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var started time.Time
			cl := &service.Client{Base: base, HTTPClient: hc, OnEvent: func(line []byte) {
				if started.IsZero() && bytes.Contains(line, []byte(`"ev":"job.start"`)) {
					started = time.Now()
				}
			}}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(block) {
					return
				}
				j := block[i]
				started = time.Time{}
				j.submit = time.Now()
				j.res, j.err = cl.Submit(context.Background(), j.spec)
				j.done = time.Now()
				j.start = started
				if j.start.IsZero() {
					j.start = j.done
				}
				opID := cfg.nextOp()
				id := rd.tr.record("service.Client.Submit", rd.id, opID, j.submit, j.done)
				rd.tr.record("service.queue_wait", id, opID, j.submit, j.start)
				rd.tr.record("service.run", id, opID, j.start, j.done)
			}
		}()
	}
	wg.Wait()
}

// checkServiceJobs re-runs a fixed subset of the campaign jobs in-process
// with the same seed, model and trials; their tallies must match.
func checkServiceJobs(r *report, jobs []*job, benches map[string]*prog.Benchmark) {
	const maxChecks = 6
	n := 0
	for i, j := range jobs {
		if n == maxChecks {
			return
		}
		if j.spec.Kind != service.KindCampaign || i%7 != 0 {
			continue
		}
		n++
		r.attempted++
		b := benches[j.spec.Bench]
		g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(j.spec.Input), b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			r.fail("service check %s: golden: %v", j.spec.Bench, err)
			continue
		}
		var c campaign.Counts
		if j.spec.Adaptive {
			c = campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{Workers: 1, Seed: j.spec.Seed, MaxTrials: j.spec.Trials}).Counts
		} else {
			model, err := fault.CampaignModel(j.spec.FaultModel)
			if err != nil {
				r.fail("service check %s: %v", j.spec.Bench, err)
				continue
			}
			c = campaign.OverallParallel(b.Prog, g, j.spec.Trials, campaign.ParallelOptions{Workers: 1, Seed: j.spec.Seed, Model: model})
		}
		if c != j.res.Counts {
			r.fail("service check %s (model %q, adaptive %v): in-process tally %+v, service returned %+v",
				j.spec.Bench, j.spec.FaultModel, j.spec.Adaptive, c, j.res.Counts)
		}
	}
}
