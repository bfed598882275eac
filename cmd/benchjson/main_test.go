package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func writeFile(path string, blob []byte) error {
	return os.WriteFile(path, blob, 0o644)
}

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/interp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGoldenRun/pathfinder-8     100	  1516079 ns/op	     16704 dyn/op
BenchmarkOverall/scratch/pathfinder-8         	       2	 165783610 ns/op	  14139045 dyn/op	         0 skipped/op
BenchmarkOverall/scratch/hpccg-8              	       2	1137711336 ns/op	  93157395 dyn/op	         0 skipped/op
BenchmarkOverall/checkpointed/pathfinder-8    	       2	  74611850 ns/op	  14139045 dyn/op	   8156250 skipped/op
BenchmarkOverall/checkpointed/hpccg-8         	       2	 627474796 ns/op	  93157395 dyn/op	  44936420 skipped/op
PASS
ok  	repro/internal/interp	6.080s
`

func TestRun(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(strings.NewReader(sample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].NsPerOp != 1516079 || rep.Benchmarks[0].Metrics["dyn/op"] != 16704 {
		t.Fatalf("bad first benchmark: %+v", rep.Benchmarks[0])
	}
	if got := rep.OverallSpeedup["pathfinder"]; got < 2.2 || got > 2.23 {
		t.Fatalf("pathfinder speedup = %v, want ~2.22", got)
	}
	if got := rep.OverallSpeedup["hpccg"]; got < 1.8 || got > 1.82 {
		t.Fatalf("hpccg speedup = %v, want ~1.81", got)
	}
	if rep.Env["cpu"] == "" {
		t.Fatal("missing cpu env")
	}
}

const fitnessSample = `goos: linux
BenchmarkFitnessProfile/perinstr/pathfinder-8    100	  200000 ns/op	   16704 dyn/op	  36416 B/op	       8 allocs/op
BenchmarkFitnessProfile/perinstr/hpccg-8         100	 1600000 ns/op	   90769 dyn/op	  37264 B/op	      11 allocs/op
BenchmarkFitnessProfile/block/pathfinder-8       100	  130000 ns/op	   16704 dyn/op	      0 B/op	       0 allocs/op
BenchmarkFitnessProfile/fused/pathfinder-8       100	  100000 ns/op	   16704 dyn/op	      0 B/op	       0 allocs/op
BenchmarkFitnessProfile/fused/hpccg-8            100	  640000 ns/op	   90769 dyn/op	      0 B/op	       0 allocs/op
PASS
`

func TestRunFitnessSpeedup(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(strings.NewReader(fitnessSample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	deref := func(name string) float64 {
		p := rep.FitnessSpeedup[name]
		if p == nil {
			t.Fatalf("%s fitness speedup is null", name)
		}
		return *p
	}
	if got := deref("pathfinder"); got != 2 {
		t.Fatalf("pathfinder fitness speedup = %v, want 2", got)
	}
	if got := deref("hpccg"); got != 2.5 {
		t.Fatalf("hpccg fitness speedup = %v, want 2.5", got)
	}
	// geomean of 2 and 2.5 is sqrt(5) ≈ 2.24.
	if got := deref("geomean"); got < 2.23 || got > 2.25 {
		t.Fatalf("geomean = %v, want ~2.24", got)
	}
	if rep.OverallSpeedup != nil {
		t.Fatalf("unexpected overall speedups: %v", rep.OverallSpeedup)
	}
	if errOut.Len() != 0 {
		t.Fatalf("unexpected warning: %s", errOut.String())
	}
}

// A zero-valued speedup set (a 0 ns/op numerator can come out of a
// degenerate bench run) must produce an explicit null geomean and a
// warning, never NaN/-Inf in the JSON artifact.
const zeroFitnessSample = `goos: linux
BenchmarkFitnessProfile/perinstr/pathfinder-8    100	  0 ns/op
BenchmarkFitnessProfile/fused/pathfinder-8       100	  100000 ns/op
PASS
`

func TestRunFitnessGeomeanNullOnZeroSpeedups(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(strings.NewReader(zeroFitnessSample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "NaN") || strings.Contains(out.String(), "Inf") {
		t.Fatalf("non-finite value leaked into JSON:\n%s", out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	g, ok := rep.FitnessSpeedup["geomean"]
	if !ok || g != nil {
		t.Fatalf("geomean = %v (present=%v), want explicit null", g, ok)
	}
	if !strings.Contains(errOut.String(), "geomean is null") {
		t.Fatalf("missing warning, stderr: %q", errOut.String())
	}
	if !strings.Contains(out.String(), `"geomean": null`) {
		t.Fatalf("geomean not rendered as null:\n%s", out.String())
	}
}

func TestRunEmpty(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(strings.NewReader("PASS\n"), &out, &errOut); err == nil {
		t.Fatal("expected error for input without benchmark lines")
	}
}

const batchedSample = `goos: linux
BenchmarkOverall/scratch/pathfinder-8       	2	165783610 ns/op
BenchmarkOverall/checkpointed/pathfinder-8  	2	 74611850 ns/op
BenchmarkOverall/batched/pathfinder-8       	2	 37305925 ns/op
PASS
`

func TestRunBatchSpeedup(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(strings.NewReader(batchedSample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if got := rep.BatchSpeedup["pathfinder"]; got != 2 {
		t.Fatalf("pathfinder batch speedup = %v, want 2", got)
	}
	if got := rep.OverallSpeedup["pathfinder"]; got < 2.2 || got > 2.23 {
		t.Fatalf("pathfinder overall speedup = %v, want ~2.22", got)
	}
}

// Repeated runs of a benchmark (go test -count N) fold into one record
// holding the median of each value, and the speedups use the medians.
const repeatedSample = `goos: linux
BenchmarkOverall/scratch/pathfinder-8        3   900 ns/op   10 dyn/op
BenchmarkOverall/checkpointed/pathfinder-8   3   300 ns/op   10 dyn/op
BenchmarkOverall/scratch/pathfinder-8        3   400 ns/op   10 dyn/op
BenchmarkOverall/checkpointed/pathfinder-8   3   200 ns/op   10 dyn/op
BenchmarkOverall/scratch/pathfinder-8        3   600 ns/op   10 dyn/op
BenchmarkOverall/checkpointed/pathfinder-8   3   100 ns/op   10 dyn/op
PASS
`

func TestRunMedianOfRepeats(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(strings.NewReader(repeatedSample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d records, want one per benchmark name: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	if rep.Benchmarks[0].NsPerOp != 600 || rep.Benchmarks[1].NsPerOp != 200 || rep.Benchmarks[0].Metrics["dyn/op"] != 10 {
		t.Fatalf("records %+v, want the medians 600 and 200 ns/op", rep.Benchmarks)
	}
	if got := rep.OverallSpeedup["pathfinder"]; got != 3 {
		t.Fatalf("pathfinder overall speedup = %v, want 3 (median over median)", got)
	}
}

// The compose speedup must come from the dyn/op metric, not ns/op: dyn/op
// is deterministic, so the committed ratio is host-independent.
const composeSample = `goos: linux
BenchmarkSensitivityCompose/scratch/pathfinder-8       	1	 513199611 ns/op	  89090550 dyn/op
BenchmarkSensitivityCompose/incremental/pathfinder-8   	1	 132301750 ns/op	  22272637 dyn/op
BenchmarkSensitivityCompose/scratch/needle-8           	1	 487310864 ns/op	  48587760 dyn/op
BenchmarkSensitivityCompose/incremental/needle-8       	1	  71746597 ns/op	  97175520 dyn/op
PASS
`

func TestRunComposeSpeedup(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(strings.NewReader(composeSample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if got := rep.ComposeSpeedup["pathfinder"]; got != 4 {
		t.Fatalf("pathfinder compose speedup = %v, want 4 (dyn/op ratio, not ns/op)", got)
	}
	if got := rep.ComposeSpeedup["needle"]; got != 0.5 {
		t.Fatalf("needle compose speedup = %v, want 0.5", got)
	}
	if rep.OverallSpeedup != nil || rep.FitnessSpeedup != nil {
		t.Fatalf("unexpected unrelated speedups: %+v", rep)
	}
}

// Shard speedup must come from the deterministic dyncrit/op metric (the
// critical-path dynamic-instruction count), not ns/op: a single-core CI host
// cannot measure wall-clock shard parallelism, dyncrit it can.
const shardSample = `goos: linux
BenchmarkServiceShard/shards1/pathfinder-8  	1	 513199611 ns/op	  89090550 dyn/op	  89090550 dyncrit/op
BenchmarkServiceShard/shards2/pathfinder-8  	1	 500000000 ns/op	  89090550 dyn/op	  44545275 dyncrit/op
BenchmarkServiceGolden/cold/pathfinder-8    	1	 10000000 ns/op	  1200000 setupdyn/op
BenchmarkServiceGolden/warm/pathfinder-8    	1	 1000 ns/op	  0 setupdyn/op
PASS
`

func TestRunShardSpeedupAndCacheElimination(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(strings.NewReader(shardSample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if got := rep.ShardSpeedup["pathfinder"]; got != 2 {
		t.Fatalf("pathfinder shard speedup = %v, want 2 (dyncrit/op ratio)", got)
	}
	if got := rep.CacheElimination["pathfinder"]; got != 1 {
		t.Fatalf("pathfinder cache elimination = %v, want 1 (warm setup fully eliminated)", got)
	}
	if rep.OverallSpeedup != nil || rep.ComposeSpeedup != nil {
		t.Fatalf("unexpected unrelated speedups: %+v", rep)
	}
}

func TestCompareShardRegression(t *testing.T) {
	oldRep := Report{
		ShardSpeedup:     map[string]float64{"pathfinder": 2.0},
		CacheElimination: map[string]float64{"pathfinder": 1.0},
	}
	newRep := Report{
		ShardSpeedup:     map[string]float64{"pathfinder": 1.2},
		CacheElimination: map[string]float64{"pathfinder": 1.0},
	}
	code, log := runCompare(t, oldRep, newRep)
	if code == 0 {
		t.Fatalf("regressed shard compare exited 0:\n%s", log)
	}
	if !strings.Contains(log, "FAIL shard_speedup/pathfinder") {
		t.Fatalf("missing failure line:\n%s", log)
	}
	if !strings.Contains(log, "ok   cache_elimination/pathfinder") {
		t.Fatalf("missing cache_elimination pass line:\n%s", log)
	}
}

func TestCompareComposeRegression(t *testing.T) {
	oldRep := Report{ComposeSpeedup: map[string]float64{"pathfinder": 4.0}}
	newRep := Report{ComposeSpeedup: map[string]float64{"pathfinder": 2.0}}
	code, log := runCompare(t, oldRep, newRep)
	if code == 0 {
		t.Fatalf("regressed compose compare exited 0:\n%s", log)
	}
	if !strings.Contains(log, "FAIL compose_speedup/pathfinder") {
		t.Fatalf("missing failure line:\n%s", log)
	}
}

func writeReport(t *testing.T, rep Report) string {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/report.json"
	if err := writeFile(path, blob); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCompare(t *testing.T, oldRep, newRep Report, extra ...string) (int, string) {
	t.Helper()
	args := append([]string{"-compare", writeReport(t, oldRep), writeReport(t, newRep)}, extra...)
	var out, errOut bytes.Buffer
	code := cli(args, strings.NewReader(""), &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestComparePass(t *testing.T) {
	oldRep := Report{OverallSpeedup: map[string]float64{"pathfinder": 2.2, "hpccg": 1.8},
		BatchSpeedup: map[string]float64{"pathfinder": 1.9}}
	newRep := Report{OverallSpeedup: map[string]float64{"pathfinder": 2.0, "hpccg": 1.9},
		BatchSpeedup: map[string]float64{"pathfinder": 1.8}}
	code, log := runCompare(t, oldRep, newRep)
	if code != 0 {
		t.Fatalf("within-tolerance compare exited %d:\n%s", code, log)
	}
	if !strings.Contains(log, "bench-regression gate passed") {
		t.Fatalf("missing pass marker:\n%s", log)
	}
}

func TestCompareRegression(t *testing.T) {
	oldRep := Report{OverallSpeedup: map[string]float64{"pathfinder": 2.2}}
	newRep := Report{OverallSpeedup: map[string]float64{"pathfinder": 1.5}}
	code, log := runCompare(t, oldRep, newRep)
	if code == 0 {
		t.Fatalf("regressed compare exited 0:\n%s", log)
	}
	if !strings.Contains(log, "FAIL overall_speedup/pathfinder") {
		t.Fatalf("missing failure line:\n%s", log)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	oldRep := Report{OverallSpeedup: map[string]float64{"pathfinder": 2.2, "fft": 1.7}}
	newRep := Report{OverallSpeedup: map[string]float64{"pathfinder": 2.2}}
	code, log := runCompare(t, oldRep, newRep)
	if code == 0 {
		t.Fatalf("compare with a missing benchmark exited 0:\n%s", log)
	}
	if !strings.Contains(log, "missing from") {
		t.Fatalf("missing-benchmark failure not reported:\n%s", log)
	}
}

func TestCompareToleranceFlagAfterPositionals(t *testing.T) {
	oldRep := Report{OverallSpeedup: map[string]float64{"pathfinder": 2.0}}
	newRep := Report{OverallSpeedup: map[string]float64{"pathfinder": 1.2}}
	// 1.2 fails the default 15% tolerance but passes 50%; the flag comes
	// after the file arguments, as the Makefile invokes it.
	if code, log := runCompare(t, oldRep, newRep); code == 0 {
		t.Fatalf("default tolerance should fail:\n%s", log)
	}
	if code, log := runCompare(t, oldRep, newRep, "-tolerance", "0.5"); code != 0 {
		t.Fatalf("-tolerance 0.5 after positionals should pass, exited %d:\n%s", code, log)
	}
}
