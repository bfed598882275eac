// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON artifact: one record per benchmark (ns/op plus any
// custom metrics such as dyn/op, skipped/op, converged/op and allocs/op)
// and derived speedup tables — for the BenchmarkOverall
// scratch/checkpointed pairs the per-program campaign speedup of
// checkpointing (the skipped golden prefix plus the tails of trials that
// re-join the golden at a snapshot), for the
// checkpointed/batched pairs the additional speedup of lockstep batching
// (both in BENCH_fi.json), for the BenchmarkFitnessProfile
// perinstr/fused pairs the per-program and geomean speedup of the fused
// profiling fast path (BENCH_fitness.json), and for the
// BenchmarkSensitivityCompose scratch/incremental pairs the dyn/op-based
// FI-spend saving of compositional sensitivity derivation
// (BENCH_compose.json). A benchmark that appears several times (go test
// -count N) becomes one record holding the median of each value, so a
// committed baseline can be the median of several runs.
//
// Usage:
//
//	go test -run '^$' -bench 'Benchmark(Overall|Golden)' ./internal/interp | benchjson > BENCH_fi.json
//	go test -run '^$' -bench 'Benchmark(Overall|Golden)' -count 5 ./internal/interp | benchjson > BENCH_fi.json
//	go test -run '^$' -bench BenchmarkFitnessProfile ./internal/interp | benchjson > BENCH_fitness.json
//	go test -run '^$' -bench BenchmarkSensitivityCompose ./internal/sensitivity | benchjson > BENCH_compose.json
//
// With -compare it acts as the CI bench-regression gate instead of a
// converter: it reads two previously generated reports and exits non-zero
// when any per-benchmark speedup present in both files regressed by more
// than -tolerance (a fraction; 0.15 allows a 15% drop):
//
//	benchjson -compare BENCH_fi.json BENCH_fi.new.json -tolerance 0.15
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_fi.json / BENCH_fitness.json schema.
type Report struct {
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
	// OverallSpeedup maps each program benchmark to
	// scratch ns/op ÷ checkpointed ns/op for BenchmarkOverall. The scratch
	// golden has no snapshots, so the ratio counts both what snapshots
	// save: the golden prefix each trial skips and the tails of trials
	// that end early by re-joining the golden.
	OverallSpeedup map[string]float64 `json:"overall_speedup,omitempty"`
	// BatchSpeedup maps each program benchmark to
	// checkpointed ns/op ÷ batched ns/op for BenchmarkOverall — the
	// additional campaign speedup of lockstep batching over per-trial
	// checkpointed execution.
	BatchSpeedup map[string]float64 `json:"batch_speedup,omitempty"`
	// FitnessSpeedup maps each program benchmark to perinstr ns/op ÷
	// fused ns/op for BenchmarkFitnessProfile, plus a "geomean" entry —
	// the speedup of the fused profiling fast path over the legacy
	// per-instruction fitness evaluation. The geomean entry is null (with
	// a warning on stderr) when no positive finite speedup exists to
	// average — committing NaN or -Inf into a BENCH artifact would poison
	// every downstream consumer of the file.
	FitnessSpeedup map[string]*float64 `json:"fitness_speedup,omitempty"`
	// ComposeSpeedup maps each program benchmark to scratch dyn/op ÷
	// incremental dyn/op for BenchmarkSensitivityCompose — the FI-spend
	// saving of composing cached per-segment profiles across a GA-like
	// input sequence instead of deriving sensitivity from scratch per
	// input. The ratio is over the deterministic dyn/op metric, not
	// ns/op, so it is immune to host-speed noise.
	ComposeSpeedup map[string]float64 `json:"compose_speedup,omitempty"`
	// ShardSpeedup maps each program benchmark to shards1 dyncrit/op ÷
	// shards2 dyncrit/op for BenchmarkServiceShard. dyncrit/op is the
	// critical-path dynamic-instruction count (the largest single-shard
	// share), so the ratio is the deterministic wall-clock speedup an
	// S-shard campaign achieves with one executor per shard — measurable
	// even on a single-core CI host.
	ShardSpeedup map[string]float64 `json:"shard_speedup,omitempty"`
	// CacheElimination maps each program benchmark to
	// 1 − warm setupdyn/op ÷ cold setupdyn/op for BenchmarkServiceGolden —
	// the fraction of golden-run + checkpoint setup work the peppaxd
	// cross-job cache eliminates for a repeat submission (1.0 = the warm
	// path pays nothing).
	CacheElimination map[string]float64 `json:"cache_elimination,omitempty"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func cli(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	compare := fs.Bool("compare", false, "compare two reports (old.json new.json) instead of converting bench output; exits non-zero on regression")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional speedup drop before -compare fails (0.15 = 15%)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The flag package stops at the first positional argument; re-parse the
	// remainder so `-compare old.json new.json -tolerance 0.1` works with
	// the flags in any position.
	var files []string
	rest := fs.Args()
	for len(rest) > 0 {
		files = append(files, rest[0])
		if err := fs.Parse(rest[1:]); err != nil {
			return 2
		}
		rest = fs.Args()
	}
	if *compare {
		if len(files) != 2 {
			fmt.Fprintln(stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
			return 2
		}
		ok, err := compareReports(files[0], files[1], *tolerance, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if len(files) != 0 {
		fmt.Fprintf(stderr, "benchjson: unexpected arguments %v (bench output is read from stdin)\n", files)
		return 2
	}
	if err := run(stdin, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// compareReports is the CI bench-regression gate: every per-benchmark
// speedup present in the old report must still exist in the new one and be
// no worse than old×(1−tolerance). Speedup ratios are used rather than raw
// ns/op because both sides of each ratio ran on the same machine, so the
// ratio cancels absolute host-speed differences between the committed
// baseline and the CI runner.
func compareReports(oldPath, newPath string, tolerance float64, out io.Writer) (bool, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	ok := true
	check := func(metric string, oldS, newS map[string]float64) {
		names := make([]string, 0, len(oldS))
		for name := range oldS {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			want := oldS[name]
			floor := want * (1 - tolerance)
			got, present := newS[name]
			switch {
			case !present:
				fmt.Fprintf(out, "FAIL %s/%s: %.2fx in %s but missing from %s\n",
					metric, name, want, oldPath, newPath)
				ok = false
			case got < floor:
				fmt.Fprintf(out, "FAIL %s/%s: %.2fx → %.2fx (floor %.2fx at %.0f%% tolerance)\n",
					metric, name, want, got, floor, tolerance*100)
				ok = false
			default:
				fmt.Fprintf(out, "ok   %s/%s: %.2fx → %.2fx (floor %.2fx)\n",
					metric, name, want, got, floor)
			}
		}
	}
	check("overall_speedup", oldRep.OverallSpeedup, newRep.OverallSpeedup)
	check("batch_speedup", oldRep.BatchSpeedup, newRep.BatchSpeedup)
	check("compose_speedup", oldRep.ComposeSpeedup, newRep.ComposeSpeedup)
	check("shard_speedup", oldRep.ShardSpeedup, newRep.ShardSpeedup)
	check("cache_elimination", oldRep.CacheElimination, newRep.CacheElimination)
	if ok {
		fmt.Fprintln(out, "bench-regression gate passed")
	}
	return ok, nil
}

func loadReport(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func run(in io.Reader, out, errw io.Writer) error {
	rep := Report{Env: map[string]string{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line)
			if err != nil {
				return fmt.Errorf("%w in %q", err, line)
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			if k, v, ok := strings.Cut(line, ":"); ok {
				rep.Env[k] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	rep.Benchmarks = medianOfRepeats(rep.Benchmarks)
	rep.OverallSpeedup = speedups(rep.Benchmarks)
	rep.BatchSpeedup = batchSpeedups(rep.Benchmarks)
	rep.FitnessSpeedup = fitnessSpeedups(rep.Benchmarks, errw)
	rep.ComposeSpeedup = composeSpeedups(rep.Benchmarks)
	rep.ShardSpeedup = shardSpeedups(rep.Benchmarks)
	rep.CacheElimination = cacheEliminations(rep.Benchmarks)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parseBench parses one result line, e.g.
//
//	BenchmarkOverall/scratch/hpccg-8  2  1137711336 ns/op  93157395 dyn/op  0 skipped/op
func parseBench(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line")
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count %q", f[1])
	}
	b := Benchmark{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value %q", f[i])
		}
		if f[i+1] == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[f[i+1]] = v
	}
	return b, nil
}

// medianOfRepeats folds the records of a benchmark that ran several times
// into one, in first-appearance order, holding the median ns/op and the
// median of each metric (the mean of the middle two for an even count).
// Iterations is the first run's.
func medianOfRepeats(benches []Benchmark) []Benchmark {
	runs := map[string][]Benchmark{}
	var names []string
	for _, b := range benches {
		if _, ok := runs[b.Name]; !ok {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		rs := runs[name]
		b := rs[0]
		if len(rs) > 1 {
			ns := make([]float64, len(rs))
			for i, r := range rs {
				ns[i] = r.NsPerOp
			}
			b.NsPerOp = median(ns)
			b.Metrics = map[string]float64{}
			for k := range rs[0].Metrics {
				var vs []float64
				for _, r := range rs {
					if v, ok := r.Metrics[k]; ok {
						vs = append(vs, v)
					}
				}
				b.Metrics[k] = median(vs)
			}
		}
		out = append(out, b)
	}
	return out
}

// median returns the median of vs, which it sorts.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// trimProcs strips the trailing -<GOMAXPROCS> suffix from a benchmark name.
func trimProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// ratios pairs <prefix><num>/<prog> with <prefix><den>/<prog> lines and
// reports their ns/op ratios, rounded to two decimals.
func ratios(benches []Benchmark, numPrefix, denPrefix string) map[string]float64 {
	return metricRatios(benches, numPrefix, denPrefix, "")
}

// metricRatios is ratios over an arbitrary custom metric ("" = ns/op):
// deterministic metrics like dyn/op give host-independent ratios.
func metricRatios(benches []Benchmark, numPrefix, denPrefix, metric string) map[string]float64 {
	value := func(b Benchmark) (float64, bool) {
		if metric == "" {
			return b.NsPerOp, true
		}
		v, ok := b.Metrics[metric]
		return v, ok
	}
	num, den := map[string]float64{}, map[string]float64{}
	for _, b := range benches {
		v, ok := value(b)
		if !ok {
			continue
		}
		name := trimProcs(b.Name)
		if p, ok := strings.CutPrefix(name, numPrefix); ok {
			num[p] = v
		} else if p, ok := strings.CutPrefix(name, denPrefix); ok {
			den[p] = v
		}
	}
	out := map[string]float64{}
	for p, n := range num {
		if d, ok := den[p]; ok && d > 0 {
			out[p] = math.Round(n/d*100) / 100
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// composeSpeedups pairs BenchmarkSensitivityCompose/scratch/<prog> with
// .../incremental/<prog> on the dyn/op metric.
func composeSpeedups(benches []Benchmark) map[string]float64 {
	return metricRatios(benches,
		"BenchmarkSensitivityCompose/scratch/",
		"BenchmarkSensitivityCompose/incremental/", "dyn/op")
}

// shardSpeedups pairs BenchmarkServiceShard/shards1/<prog> with
// .../shards2/<prog> on the deterministic dyncrit/op metric — the
// critical-path speedup of splitting a campaign across two shard executors.
func shardSpeedups(benches []Benchmark) map[string]float64 {
	return metricRatios(benches,
		"BenchmarkServiceShard/shards1/",
		"BenchmarkServiceShard/shards2/", "dyncrit/op")
}

// cacheEliminations pairs BenchmarkServiceGolden/cold/<prog> with
// .../warm/<prog> on setupdyn/op and reports 1 − warm/cold: the fraction of
// golden-setup work a cache hit eliminates.
func cacheEliminations(benches []Benchmark) map[string]float64 {
	r := metricRatios(benches,
		"BenchmarkServiceGolden/warm/",
		"BenchmarkServiceGolden/cold/", "setupdyn/op")
	if r == nil {
		return nil
	}
	out := make(map[string]float64, len(r))
	for p, warmOverCold := range r {
		out[p] = math.Round((1-warmOverCold)*100) / 100
	}
	return out
}

// speedups pairs BenchmarkOverall/scratch/<prog> with .../checkpointed/<prog>
// and reports their ns/op ratios.
func speedups(benches []Benchmark) map[string]float64 {
	return ratios(benches, "BenchmarkOverall/scratch/", "BenchmarkOverall/checkpointed/")
}

// batchSpeedups pairs BenchmarkOverall/checkpointed/<prog> with
// .../batched/<prog> and reports their ns/op ratios.
func batchSpeedups(benches []Benchmark) map[string]float64 {
	return ratios(benches, "BenchmarkOverall/checkpointed/", "BenchmarkOverall/batched/")
}

// fitnessSpeedups pairs BenchmarkFitnessProfile/perinstr/<prog> with
// .../fused/<prog> and adds the geometric-mean speedup across programs.
// Only positive finite speedups enter the geomean; if none exist (an empty
// or zero-valued set — e.g. a 0 ns/op numerator from a degenerate bench
// run), the geomean entry is explicitly null and a warning goes to errw,
// instead of exp(log(0)) artifacts landing in committed BENCH JSON.
func fitnessSpeedups(benches []Benchmark, errw io.Writer) map[string]*float64 {
	r := ratios(benches, "BenchmarkFitnessProfile/perinstr/", "BenchmarkFitnessProfile/fused/")
	if r == nil {
		return nil
	}
	out := make(map[string]*float64, len(r)+1)
	logSum, n := 0.0, 0
	for p, s := range r {
		s := s
		out[p] = &s
		if s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s) {
			logSum += math.Log(s)
			n++
		}
	}
	if n == 0 {
		fmt.Fprintln(errw, "benchjson: warning: no positive finite fitness speedups; geomean is null")
		out["geomean"] = nil
		return out
	}
	g := math.Round(math.Exp(logSum/float64(n))*100) / 100
	out["geomean"] = &g
	return out
}
