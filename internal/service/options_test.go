package service

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/prog"
)

// TestServiceSearchAdaptive: "adaptive": true on a search job must switch
// its closing campaign to the adaptive runner, exactly as on a campaign
// job, so the job's trace carries the fi.adaptive event.
func TestServiceSearchAdaptive(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var events [][]byte
	cl := &Client{Base: ts.URL, OnEvent: func(line []byte) { events = append(events, line) }}
	res, err := cl.Submit(context.Background(), &JobSpec{
		Kind: KindSearch, Bench: "pathfinder", Seed: 7, Adaptive: true,
		Generations: 2, PopSize: 4, TrialsPerRep: 3, Trials: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := false
	for _, ev := range events {
		adaptive = adaptive || bytes.Contains(ev, []byte(`fi.adaptive`))
	}
	if !adaptive {
		t.Fatal("search job with adaptive set ran a flat closing campaign (no fi.adaptive trace event)")
	}
	if res.Counts.Trials == 0 || res.Counts.Trials > 60 {
		t.Fatalf("adaptive closing campaign spent %d trials, cap 60", res.Counts.Trials)
	}
}

// TestServiceAdaptiveFaultModel: adaptive campaign jobs accept every fault
// model and match the in-process adaptive campaign under that model.
func TestServiceAdaptiveFaultModel(t *testing.T) {
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{Seed: 9, MaxTrials: 240, Model: fault.BurstFlip})
	_, ts := newTestServer(t, Config{})
	res := submit(t, ts, &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: 240, Seed: 9,
		Adaptive: true, FaultModel: fault.BurstFlip.Name(),
	})
	if res.Counts != want.Counts || res.SDC != want.P {
		t.Fatalf("service adaptive burst %+v (sdc %v) != in-process %+v (sdc %v)",
			res.Counts, res.SDC, want.Counts, want.P)
	}
}

// TestServiceConcurrentSensitivity: pairs of sensitivity jobs on one
// kernel at once share the compiled program, whose partition hash prints
// the module; every job must succeed and each pair compose identically.
// `make race` runs this under the race detector.
func TestServiceConcurrentSensitivity(t *testing.T) {
	_, ts := newTestServer(t, Config{Slots: 2})
	cl := &Client{Base: ts.URL}
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		results := make([]*JobResult, 2)
		errs := make([]error, 2)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = cl.Submit(context.Background(), &JobSpec{
					Kind: KindSensitivity, Bench: "pathfinder", Trials: 60, Seed: uint64(round),
				})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d job %d: %v", round, i, err)
			}
		}
		if a, b := results[0], results[1]; a.SDC != b.SDC || a.Lo != b.Lo || a.Hi != b.Hi {
			t.Fatalf("round %d: concurrent compositions differ: %v [%v, %v] vs %v [%v, %v]",
				round, a.SDC, a.Lo, a.Hi, b.SDC, b.Lo, b.Hi)
		}
	}
}
