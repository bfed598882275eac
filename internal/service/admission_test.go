package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/prog"
)

// post sends a raw JSON body and returns the status and response body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s %s: %v", path, body, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s %s: reading response: %v", path, body, err)
	}
	return resp.StatusCode, string(out)
}

// TestServiceInputArity: an input with the wrong number of arguments is a
// 400 at admission on both endpoints, with the arity in the message —
// never a job stream that dies mid-run — and a repeat is refused the same
// way rather than tripping over a poisoned cache entry.
func TestServiceInputArity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/jobs", `{"bench":"pathfinder","input":[1]}`},
		{"/jobs", `{"bench":"pathfinder","input":[1]}`},
		{"/jobs", `{"kind":"sensitivity","bench":"needle","input":[1,2,3,4,5,6]}`},
		{"/shard", `{"bench":"pathfinder","input":[1],"seed":5,"lo":0,"hi":10}`},
	} {
		status, msg := post(t, ts, c.path, c.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400 (%s)", c.path, c.body, status, msg)
		}
		if !strings.Contains(msg, "takes 4 args, got") {
			t.Fatalf("%s %s: error %q does not name the arity", c.path, c.body, msg)
		}
	}
}

// TestServiceShardDefaultInput: /shard applies the /jobs rule that an empty
// input is the reference input, and returns exactly the in-process tally
// of that shard.
func TestServiceShardDefaultInput(t *testing.T) {
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallShard(b.Prog, g, 10, 40, campaign.ParallelOptions{Workers: 1, Seed: 5})

	_, ts := newTestServer(t, Config{WorkerOnly: true})
	status, body := post(t, ts, "/shard", `{"bench":"pathfinder","seed":5,"lo":10,"hi":40}`)
	if status != http.StatusOK {
		t.Fatalf("shard without input: status %d (%s)", status, body)
	}
	var sr ShardResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Counts != want || sr.GoldenDyn != g.DynCount {
		t.Fatalf("shard without input: %+v (golden %d), want %+v (golden %d)", sr.Counts, sr.GoldenDyn, want, g.DynCount)
	}
}

// TestServiceGoldenSharedAcrossModels: the golden run is fault-free, so a
// job under another fault model on the same input reuses the golden the
// first job built.
func TestServiceGoldenSharedAcrossModels(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	flat := submit(t, ts, &JobSpec{Kind: KindCampaign, Bench: "needle", Trials: 30, Seed: 3})
	if flat.GoldenCached {
		t.Fatal("first job reported a cached golden")
	}
	double := submit(t, ts, &JobSpec{
		Kind: KindCampaign, Bench: "needle", Trials: 30, Seed: 3, FaultModel: fault.DoubleFlip.Name(),
	})
	if !double.GoldenCached {
		t.Fatal("doubleflip job on the same input rebuilt the golden")
	}
	if st := s.cache.goldenStats(); st.Misses != 1 || st.Len != 1 {
		t.Fatalf("golden cache stats %+v, want one entry built once", st)
	}
}

// TestServiceRejectsEngineKnobs: /jobs and /shard decode strictly, and
// lockstep batching, the snapshot spacing and the trial split are not
// request settings, so a request that still sends any of those fields is
// refused with 400.
func TestServiceRejectsEngineKnobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/jobs", `{"bench":"pathfinder","trials":10,"batch":8}`},
		{"/jobs", `{"bench":"pathfinder","trials":10,"checkpoint_interval":-1}`},
		{"/jobs", `{"bench":"pathfinder","trials":10,"shards":2}`},
		{"/shard", `{"bench":"pathfinder","seed":5,"lo":0,"hi":10,"batch":8,"checkpoint_interval":-1}`},
	} {
		status, msg := post(t, ts, c.path, c.body)
		if status != http.StatusBadRequest || !strings.Contains(msg, "unknown field") {
			t.Fatalf("%s %s: status %d (%s), want 400 unknown field", c.path, c.body, status, msg)
		}
	}
}

// TestServiceHugeWorkers: /jobs and /shard clamp a wire worker count to
// the server's GOMAXPROCS, so math.MaxInt runs with the tallies of the
// serial in-process campaign instead of failing the request.
func TestServiceHugeWorkers(t *testing.T) {
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallParallel(b.Prog, g, 20, campaign.ParallelOptions{Workers: 1, Seed: 5})

	s, ts := newTestServer(t, Config{})
	spec := &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 5, Workers: math.MaxInt}
	if res := submit(t, ts, spec); res.Counts != want {
		t.Fatalf("/jobs at math.MaxInt workers: %+v, want %+v", res.Counts, want)
	}
	if err := s.normalize(spec); err != nil || spec.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("normalize left workers at %d (err %v), want GOMAXPROCS %d", spec.Workers, err, runtime.GOMAXPROCS(0))
	}
	status, body := post(t, ts, "/shard", fmt.Sprintf(`{"bench":"pathfinder","seed":5,"lo":0,"hi":20,"workers":%d}`, math.MaxInt))
	if status != http.StatusOK {
		t.Fatalf("/shard at math.MaxInt workers: status %d (%s)", status, body)
	}
	var sr ShardResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Counts != want {
		t.Fatalf("/shard at math.MaxInt workers: %+v, want %+v", sr.Counts, want)
	}
}
