package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/prog"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec *JobSpec) *JobResult {
	t.Helper()
	cl := &Client{Base: ts.URL}
	res, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServiceCampaignMatchesInProcess: a flat campaign job on a coordinator
// with 0, 1 or 3 peers must run one trial range per process and return
// exactly the tally the in-process campaign computes from the same (bench,
// input, seed, trials).
func TestServiceCampaignMatchesInProcess(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallParallel(b.Prog, g, trials, campaign.ParallelOptions{Workers: 1, Seed: 5})

	for _, peers := range []int{0, 1, 3} {
		var urls []string
		var workers []*Server
		for i := 0; i < peers; i++ {
			w, wts := newTestServer(t, Config{WorkerOnly: true})
			workers = append(workers, w)
			urls = append(urls, wts.URL)
		}
		_, ts := newTestServer(t, Config{Peers: urls})
		res := submit(t, ts, &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: trials, Seed: 5})
		if res.Counts != want {
			t.Fatalf("peers=%d: service %+v != in-process %+v", peers, res.Counts, want)
		}
		if res.Shards != 1+peers {
			t.Fatalf("peers=%d: job reports %d ranges, want %d", peers, res.Shards, 1+peers)
		}
		for k, w := range workers {
			lo, hi := campaign.ShardRange(trials, k+1, 1+peers)
			if got := w.rec.Counter("service.shard.trials"); got != int64(hi-lo) {
				t.Fatalf("peers=%d: peer %d ran %d trials, want its range [%d, %d)", peers, k+1, got, lo, hi)
			}
		}
		if res.GoldenDyn != g.DynCount {
			t.Fatalf("peers=%d: golden dyn %d != %d", peers, res.GoldenDyn, g.DynCount)
		}
		if res.Tokens <= 0 {
			t.Fatalf("peers=%d: no tokens metered", peers)
		}
	}
}

// TestServicePeerAtDefaults: a coordinator given one peer and otherwise
// default settings sends that peer a trial range for a default campaign
// spec, and still returns the in-process tally.
func TestServicePeerAtDefaults(t *testing.T) {
	worker, workerTS := newTestServer(t, Config{WorkerOnly: true})
	_, coordTS := newTestServer(t, Config{Peers: []string{workerTS.URL}})
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallParallel(b.Prog, g, DefaultTrials, campaign.ParallelOptions{})
	res := submit(t, coordTS, &JobSpec{Bench: "pathfinder"})
	if res.Counts != want {
		t.Fatalf("default job %+v != in-process %+v", res.Counts, want)
	}
	if got := worker.rec.Counter("service.shard.trials"); got == 0 {
		t.Fatal("peer worker executed no trials at default settings")
	}
}

// TestServiceAdaptiveMatchesInProcess: an adaptive job through the metered
// round runner must match the in-process adaptive campaign bit for bit.
func TestServiceAdaptiveMatchesInProcess(t *testing.T) {
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{Seed: 9, MaxTrials: 240})

	_, ts := newTestServer(t, Config{})
	res := submit(t, ts, &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: 240, Seed: 9, Adaptive: true,
	})
	if res.Counts != want.Counts || res.SDC != want.P || res.Lo != want.Lo || res.Hi != want.Hi {
		t.Fatalf("service adaptive %+v (sdc %v [%v, %v]) != in-process %+v (sdc %v [%v, %v])",
			res.Counts, res.SDC, res.Lo, res.Hi, want.Counts, want.P, want.Lo, want.Hi)
	}
	if res.Adaptive == nil || res.Adaptive.Rounds != want.Rounds {
		t.Fatalf("adaptive summary missing or wrong: %+v vs rounds %d", res.Adaptive, want.Rounds)
	}
}

// TestServiceGoldenSingleFlight: K concurrent identical jobs must compute
// the golden run exactly once — everyone else blocks on the in-flight
// computation and reports a cache hit.
func TestServiceGoldenSingleFlight(t *testing.T) {
	const k = 4
	s, ts := newTestServer(t, Config{Slots: k})
	var wg sync.WaitGroup
	results := make([]*JobResult, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &Client{Base: ts.URL}
			results[i], errs[i] = cl.Submit(context.Background(), &JobSpec{
				Kind: KindCampaign, Bench: "needle", Trials: 40, Seed: 3,
			})
		}(i)
	}
	wg.Wait()
	cachedCount := 0
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].GoldenCached {
			cachedCount++
		}
		if results[i].Counts != results[0].Counts {
			t.Fatalf("job %d tally %+v != job 0 %+v", i, results[i].Counts, results[0].Counts)
		}
	}
	if cachedCount != k-1 {
		t.Fatalf("%d of %d jobs were cache hits, want %d", cachedCount, k, k-1)
	}
	if st := s.cache.goldenStats(); st.Misses != 1 || st.Hits != k-1 {
		t.Fatalf("golden cache stats %+v, want Misses=1 Hits=%d", st, k-1)
	}
}

// TestServiceSensitivityProfileSharing: two sensitivity jobs on the same
// program measure each segment profile once — the second composes entirely
// from the shared cache.
func TestServiceSensitivityProfileSharing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := &JobSpec{Kind: KindSensitivity, Bench: "pathfinder", Trials: 120, Seed: 7}
	first := submit(t, ts, spec)
	if first.Sensitivity == nil || first.Sensitivity.Measured == 0 {
		t.Fatalf("first job measured nothing: %+v", first.Sensitivity)
	}
	second := submit(t, ts, spec)
	if second.Sensitivity == nil {
		t.Fatal("second job has no sensitivity summary")
	}
	if second.Sensitivity.Measured != 0 || second.Sensitivity.Remeasured != 0 {
		t.Fatalf("second job re-measured profiles: %+v", second.Sensitivity)
	}
	if second.Sensitivity.Reused == 0 {
		t.Fatalf("second job reused nothing: %+v", second.Sensitivity)
	}
	if second.SDC != first.SDC || second.Lo != first.Lo || second.Hi != first.Hi {
		t.Fatalf("cached composition diverged: %v [%v, %v] vs %v [%v, %v]",
			second.SDC, second.Lo, second.Hi, first.SDC, first.Lo, first.Hi)
	}
}

// TestServiceSearchJob: a search job runs the full pipeline and reports a
// best input with its measured SDC bound.
func TestServiceSearchJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow under -short")
	}
	_, ts := newTestServer(t, Config{})
	res := submit(t, ts, &JobSpec{
		Kind: KindSearch, Bench: "pathfinder", Seed: 7,
		Generations: 6, PopSize: 6, TrialsPerRep: 4, Trials: 60,
	})
	if res.Search == nil || len(res.Search.BestInput) == 0 {
		t.Fatalf("no search summary: %+v", res)
	}
	if res.Counts.Trials == 0 {
		t.Fatal("no final campaign trials")
	}
	if res.Tokens <= 0 {
		t.Fatal("no tokens metered")
	}
}

// TestServiceBackpressure: with the pool full and the queue full, a new
// submission is refused with 429 + Retry-After instead of queuing unboundedly.
func TestServiceBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Slots: 1, QueueCap: 1})
	s.hold = make(chan struct{})

	done := make(chan error, 2)
	runHeld := func() {
		cl := &Client{Base: ts.URL}
		_, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
		done <- err
	}
	go runHeld() // occupies the slot, blocked on hold
	waitFor(t, func() bool { return s.inflight.Load() == 1 })
	go runHeld() // occupies the queue
	waitFor(t, func() bool { return s.pending.Load() == 2 })

	cl := &Client{Base: ts.URL}
	_, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
	re, ok := err.(*RetryError)
	if !ok {
		t.Fatalf("overflow submission: got %v, want *RetryError", err)
	}
	if re.After < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", re.After)
	}
	if got := s.rec.Counter("service.jobs.rejected"); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(s.hold)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("held job %d failed: %v", i, err)
		}
	}
}

// TestServiceTokenBudget: a job whose spend exceeds its budget is canceled
// and reported as an error, not silently truncated into a success.
func TestServiceTokenBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cl := &Client{Base: ts.URL}
	_, err := cl.Submit(context.Background(), &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: 500, Seed: 1, MaxTokens: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "token budget exceeded") {
		t.Fatalf("budget-blown job: got %v, want token budget error", err)
	}
}

// TestServiceTokenBudgetStopsFlatCampaign: a flat campaign far larger than
// its budget stops within one trial of the budget instead of running every
// trial and failing afterwards.
func TestServiceTokenBudgetStopsFlatCampaign(t *testing.T) {
	const budget = 100000
	s, ts := newTestServer(t, Config{})
	cl := &Client{Base: ts.URL}
	_, err := cl.Submit(context.Background(), &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: 20000, Seed: 1, MaxTokens: budget,
	})
	if err == nil || !strings.Contains(err.Error(), "token budget exceeded") {
		t.Fatalf("budget-blown job: got %v, want token budget error", err)
	}
	var spent, of int64
	msg := err.Error()
	if _, err := fmt.Sscanf(msg[strings.Index(msg, "spent"):], "spent %d of %d", &spent, &of); err != nil || of != budget {
		t.Fatalf("no spend in %q (%v)", msg, err)
	}
	trials := s.rec.Counter("service.shard.trials")
	if trials > 100 {
		t.Fatalf("budget-blown job ran %d trials", trials)
	}
	b := prog.Build("pathfinder")
	g, err := campaign.NewGolden(b.Prog, b.Encode(b.RefInput()), b.MaxDyn)
	if err != nil {
		t.Fatal(err)
	}
	if worst := g.TrialBudget() + 1; spent > budget+worst {
		t.Fatalf("spent %d, more than the budget %d plus one worst-case trial (%d)", spent, budget, worst)
	}
	t.Logf("stopped after %d trials, spent %d of %d", trials, spent, budget)
}

// TestServicePeerShardDispatch: a coordinator with a peer worker must
// produce exactly the unsharded in-process tally, with the peer actually
// executing its shards.
func TestServicePeerShardDispatch(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 40
	}
	worker, workerTS := newTestServer(t, Config{WorkerOnly: true})
	_, coordTS := newTestServer(t, Config{Peers: []string{workerTS.URL}})

	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallParallel(b.Prog, g, trials, campaign.ParallelOptions{Workers: 1, Seed: 13})

	res := submit(t, coordTS, &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: trials, Seed: 13,
	})
	if res.Counts != want {
		t.Fatalf("peer-sharded %+v != in-process %+v", res.Counts, want)
	}
	if got := worker.rec.Counter("service.shard.trials"); got == 0 {
		t.Fatal("peer worker executed no trials — everything ran locally")
	}
}

// TestServicePeerFallback: a dead peer degrades to local execution with the
// same bit-identical tally.
func TestServicePeerFallback(t *testing.T) {
	_, coordTS := newTestServer(t, Config{Peers: []string{"http://127.0.0.1:1"}})
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallParallel(b.Prog, g, 60, campaign.ParallelOptions{Workers: 1, Seed: 21})
	res := submit(t, coordTS, &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: 60, Seed: 21,
	})
	if res.Counts != want {
		t.Fatalf("fallback tally %+v != in-process %+v", res.Counts, want)
	}
}

// TestServiceWorkerOnlyRejectsJobs: worker mode serves /shard but not /jobs.
func TestServiceWorkerOnlyRejectsJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkerOnly: true})
	cl := &Client{Base: ts.URL}
	if _, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 10}); err == nil {
		t.Fatal("worker-only server accepted a job")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestServiceValidation: bad specs are rejected at admission with 400, not
// mid-stream.
func TestServiceValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cl := &Client{Base: ts.URL}
	for _, spec := range []*JobSpec{
		{Kind: "juggle", Bench: "pathfinder"},
		{Kind: KindCampaign, Bench: "no-such-bench"},
	} {
		if _, err := cl.Submit(context.Background(), spec); err == nil {
			t.Fatalf("spec %+v was accepted", spec)
		}
	}
}

// TestServiceShutdownDrain: Shutdown refuses new jobs immediately and waits
// for inflight jobs to finish.
func TestServiceShutdownDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Slots: 1})
	s.hold = make(chan struct{})
	done := make(chan error, 1)
	go func() {
		cl := &Client{Base: ts.URL}
		_, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
		done <- err
	}()
	waitFor(t, func() bool { return s.inflight.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.isDraining() })

	// New submissions bounce with 503 while draining.
	cl := &Client{Base: ts.URL}
	if _, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 10}); err == nil {
		t.Fatal("draining server accepted a job")
	}

	close(s.hold) // let the inflight job finish
	if err := <-done; err != nil {
		t.Fatalf("inflight job failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServiceMetricsEndpoint: /metrics serves the peppax_service_* gauges.
func TestServiceMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	submit(t, ts, &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{
		"peppax_service_jobs_accepted",
		"peppax_service_jobs_completed",
		"peppax_service_queue_depth",
		"peppax_service_inflight",
		"peppax_service_cache_golden_misses",
		"peppax_service_shard_trials",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}
