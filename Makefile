# Tier-1 verification targets. `make ci` runs everything the GitHub CI
# workflow runs (.github/workflows/ci.yml executes these same targets).

GO ?= go

.PHONY: build lint test test-short race bench-smoke bench-workers test-telemetry test-observability test-checkpoint bench-fi bench-regression test-fusion bench-fitness test-adaptive test-compose bench-compose test-service test-fuzz bench-shard e2e-service bench-check report profile ci

build:
	$(GO) build ./...

# vet plus gofmt gating: fail if any file needs reformatting.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detect the internal packages; -short skips the FI-heavy validity
# tests but keeps every parallel-layer test (worker-count equivalence, the
# shared-RNG tripwire) and the batch/checkpoint suite — lockstep batching
# forks trials off shared copy-on-write snapshot pages concurrently, so the
# Batch|Checkpoint|RunFrom|Snapshot tests must stay inside the race scope.
race:
	$(GO) test -race -short ./internal/...

# Compile and enter every benchmark once without measuring.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Measure the Workers=1 vs Workers=4 pairs (meaningful on multi-core).
bench-workers:
	$(GO) test -bench=Workers -benchtime=3x -run='^$$' .

# Checkpointed-execution equivalence gate: every resumed FI trial — and
# every lockstep-batched one — must be bit-identical to a from-scratch one,
# at the interpreter, campaign and parallel layers; a reused trial machine
# (interp.Injector) must leak no state between trials and allocate only
# each trial's Result. Then FuzzInjectorTrial fuzzes Injector.Trial
# against interp.Run on random modules for a fixed 20 s.
test-checkpoint:
	$(GO) test -count=1 -run 'Batch|Checkpoint|RunFrom|Snapshot|Injector' \
		./internal/interp ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzInjectorTrial$$' -fuzztime 20s ./internal/interp

# Measure golden-run and 1000-trial campaign throughput — from scratch,
# resuming per-trial from golden-prefix snapshots, and in lockstep batches
# forked off a shared trunk — and render the machine-readable BENCH_fi.json
# artifact (per-benchmark ns/op, dyn/op, skipped/op, the
# scratch/checkpointed campaign speedup and the checkpointed/batched one).
bench-fi:
	$(GO) test -run='^$$' -bench='Benchmark(Overall|Golden)' -benchtime=3x \
		./internal/interp | tee BENCH_fi.txt
	$(GO) run ./cmd/benchjson < BENCH_fi.txt > BENCH_fi.json
	@echo "wrote BENCH_fi.json"

# CI bench-regression gate: re-run the bench-fi suite once (-benchtime=1x
# keeps it fast) and fail if any per-benchmark speedup in the committed
# BENCH_fi.json regressed by more than TOLERANCE. Speedup ratios cancel
# absolute host speed, so the committed baseline is comparable across
# machines.
TOLERANCE ?= 0.15
bench-regression:
	$(GO) test -run='^$$' -bench='Benchmark(Overall|Golden)' -benchtime=1x \
		./internal/interp | tee BENCH_fi.new.txt
	$(GO) run ./cmd/benchjson < BENCH_fi.new.txt > BENCH_fi.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_fi.json BENCH_fi.new.json -tolerance $(TOLERANCE)
	$(GO) test -run='^$$' -bench=BenchmarkSensitivityCompose -benchtime=1x \
		./internal/sensitivity | tee BENCH_compose.new.txt
	$(GO) run ./cmd/benchjson < BENCH_compose.new.txt > BENCH_compose.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_compose.json BENCH_compose.new.json -tolerance $(TOLERANCE)
	$(GO) test -run='^$$' -bench='BenchmarkService(Shard|Golden)' -benchtime=1x \
		./internal/service | tee BENCH_shard.new.txt
	$(GO) run ./cmd/benchjson < BENCH_shard.new.txt > BENCH_shard.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_shard.json BENCH_shard.new.json -tolerance $(TOLERANCE)

# Profiling fast-path equivalence gate: the fused profiler's runs must be
# bit-identical to the reference engine, a profiled interp.Run over the
# unfused arrays (outputs, dynamic counts, traps, reconstructed
# per-instruction vectors), on white-box programs, trap cases, random
# modules, every kernel and a reused profiler. Then the fast loop must
# stay call-free: the object code of interp.(*exec).fastLoop in the built
# test binary may CALL only runtime.panic* (bounds checks) and
# runtime.morestack* (stack growth); the step also fails when the symbol
# is missing. Last, FuzzProfilerRun fuzzes the Profiler against
# interp.Run on random modules for a fixed 20 s.
FAST_LOOP = repro/internal/interp.(*exec).fastLoop
FAST_LOOP_RE = ^repro/internal/interp\.\(\*exec\)\.fastLoop$$
test-fusion:
	$(GO) test -count=1 -run 'Fusion|BlockProfile|ProfileEquiv|FuzzProfilerRun' ./internal/interp
	$(GO) test -c -o bin/interp.test ./internal/interp
	@asm="$$($(GO) tool objdump -s '$(FAST_LOOP_RE)' bin/interp.test)"; \
	if [ -z "$$asm" ]; then echo "test-fusion: no symbol $(FAST_LOOP) in bin/interp.test"; exit 1; fi; \
	calls="$$(echo "$$asm" | grep -E '[[:space:]]CALL[[:space:]]' | grep -vE 'CALL runtime\.(panic|morestack)')"; \
	if [ -n "$$calls" ]; then echo "test-fusion: $(FAST_LOOP) makes calls:"; echo "$$calls"; exit 1; fi; \
	echo "$(FAST_LOOP): every CALL is a bounds-check panic or stack growth"
	$(GO) test -run '^$$' -fuzz '^FuzzProfilerRun$$' -fuzztime 20s ./internal/interp

# Measure one GA candidate evaluation on the reference engine (a profiled
# interp.Run with per-instruction counts) vs the fused fast path on every
# kernel, and render the machine-readable BENCH_fitness.json artifact
# (per-benchmark ns/op, dyn/op, allocs/op, and the perinstr/fused speedup
# with its geomean). Five repeats are folded into medians: single runs of
# one kernel move by up to 1.5x on a shared host.
bench-fitness:
	$(GO) test -run='^$$' -bench=BenchmarkFitnessProfile -benchtime=200x -count=5 \
		./internal/interp | tee BENCH_fitness.txt
	$(GO) run ./cmd/benchjson < BENCH_fitness.txt > BENCH_fitness.json
	@echo "wrote BENCH_fitness.json"

# Adaptive stratified FI gate, in three parts: (1) the adaptive-vs-full
# equivalence suite — on >=5/7 benchmarks the composed stratified estimate
# must land inside the full 1000-trial campaign's Wilson interval while
# spending >=30% fewer trials, and on every kernel the adaptive burst-fault
# interval must overlap the flat burst campaign's — plus worker invariance
# (bit-identical results at workers 1/4, under every fault model), the
# Wilson-interval property tests and the property tests of
# campaign.Compose, the one stratified composition adaptive and compose
# share; (2) the core/experiments threading tests (adaptive final
# campaign, adaptive baseline, rejection bound); (3) end-to-end trace
# determinism — the same fi -adaptive run at 1 and 4 workers must write
# byte-identical JSONL.
test-adaptive:
	$(GO) test -count=1 -run 'Adaptive|BuildStrata|Wilson|PercentileOfValue|RandomSearchBoundsRejections|Stratified' \
		./internal/campaign ./internal/compose ./internal/stats ./internal/core ./internal/experiments
	$(GO) build -o bin/fi ./cmd/fi
	./bin/fi -bench needle -trials 300 -seed 7 -adaptive -workers 1 \
		-trace adaptive-w1.jsonl > /dev/null
	./bin/fi -bench needle -trials 300 -seed 7 -adaptive -workers 4 \
		-trace adaptive-w4.jsonl > /dev/null
	grep -c '"ev":"fi.adaptive"' adaptive-w1.jsonl > /dev/null
	cmp adaptive-w1.jsonl adaptive-w4.jsonl
	@echo "adaptive traces byte-identical across worker counts"

# Compositional-estimation gate, in two parts: (1) the compose test suite —
# partition coverage, cache reuse/staleness, the 7-benchmark equivalence
# check (composed estimate inside the direct campaign's 95% Wilson
# interval) and exact-reuse bit-identity at workers 1/4 — plus the
# sensitivity/core/experiments threading tests (Figures 5 and 7 report the
# composed checkpoint estimate) and the benchjson compose_speedup tests; (2) end-to-end
# trace determinism — the same fi -compose run at 1 and 4 workers must
# write byte-identical JSONL.
test-compose:
	$(GO) test -count=1 -run 'Compose' \
		./internal/compose ./internal/sensitivity ./internal/core \
		./internal/experiments ./cmd/benchjson
	$(GO) build -o bin/fi ./cmd/fi
	./bin/fi -bench needle -trials 300 -compose -seed 7 -workers 1 \
		-trace compose-w1.jsonl > /dev/null
	./bin/fi -bench needle -trials 300 -compose -seed 7 -workers 4 \
		-trace compose-w4.jsonl > /dev/null
	grep -c '"ev":"compose.profile"' compose-w1.jsonl > /dev/null
	cmp compose-w1.jsonl compose-w4.jsonl
	@echo "compose traces byte-identical across worker counts"

# Measure scratch vs incremental (compositional) sensitivity derivation
# over a GA-like input sequence and render BENCH_compose.json
# (per-benchmark dyn/op and the scratch/incremental compose_speedup).
# dyn/op is deterministic, so -benchtime=1x is exact, and the committed
# speedups are host-independent.
bench-compose:
	$(GO) test -run='^$$' -bench=BenchmarkSensitivityCompose -benchtime=1x \
		./internal/sensitivity | tee BENCH_compose.txt
	$(GO) run ./cmd/benchjson < BENCH_compose.txt > BENCH_compose.json
	@echo "wrote BENCH_compose.json"

# Service gate: the trial-range/merge equivalence suite (merged
# OverallShard tallies over 1/2/4 ranges bit-identical to the whole run at
# workers 1/4 × library batch sizes 1/64 on all benchmarks, cancellation
# honesty), the peppaxd service tests (campaign/adaptive/sensitivity jobs
# vs in-process at 0/1/3 peers, a peer used at default settings,
# single-flight golden cache shared across fault models, profile sharing,
# 429 backpressure, input-arity and unknown-field 400s on /jobs and
# /shard, peer dispatch + fallback, graceful drain, token budgets), the
# peppaxd daemon lifecycle test (a job over HTTP, SIGTERM, exit 143) and
# the benchjson shard_speedup/cache_elimination tests.
test-service:
	$(GO) test -count=1 -run 'Shard|CountsMerge|Service|Daemon' \
		./internal/campaign ./internal/service ./cmd/benchjson ./cmd/peppaxd

# Rare-branch fuzzing + fault-model gate: the fuzz engine unit suite, the
# search-strategy suite (TestAllStrategiesImprove drives the fuzz strategy
# through Objective.Probe), the fault-model registry/corruption tests, and
# the determinism matrix (every model bit-identical at workers 1/4 × library
# batch sizes 1/64 × merged trial ranges 1/2/4, at the
# campaign.ParallelOptions level; the default single-flip path pinned
# byte-identical to the pre-interface behaviour).
test-fuzz:
	$(GO) test -count=1 ./internal/fuzz
	$(GO) test -count=1 ./internal/search
	$(GO) test -count=1 ./internal/fault
	$(GO) test -count=1 -run 'FaultModelDeterminismMatrix|DefaultModelMatchesHistoricalPath' \
		./internal/campaign

# Measure the deterministic shard critical path (dyncrit/op at 1 vs 2
# shards) and the golden-cache setup elimination (cold vs warm setupdyn/op),
# and render BENCH_shard.json. Both metrics are dynamic-instruction counts,
# so -benchtime=1x is exact and the committed ratios are host-independent.
bench-shard:
	$(GO) test -run='^$$' -bench='BenchmarkService(Shard|Golden)' -benchtime=1x \
		./internal/service | tee BENCH_shard.txt
	$(GO) run ./cmd/benchjson < BENCH_shard.txt > BENCH_shard.json
	@echo "wrote BENCH_shard.json"

# End-to-end service gate: start a peppaxd -worker peer and a coordinator
# pointed at it with -peers, submit the same campaign over HTTP (one trial
# range on each daemon) and in-process, both at default worker settings,
# and require byte-identical fi output once the local run's "checkpoints:"
# summary and the blank line after it are dropped (it describes local
# execution state the remote renderer cannot see); then the same for an
# -adaptive campaign, which the coordinator runs alone. The peer's
# /metrics must show peppax_service_shard_trials above 0, and both daemons
# must drain on SIGTERM with exit 143.
# All artifacts (output pair, daemon logs) land under $(E2E_DIR), inside the
# gitignored bin/ tree, never at the repo root.
E2E_ADDR ?= 127.0.0.1:9473
E2E_PEER ?= 127.0.0.1:9474
E2E_DIR ?= bin/e2e
e2e-service:
	$(GO) build -o bin/peppaxd ./cmd/peppaxd
	$(GO) build -o bin/fi ./cmd/fi
	mkdir -p $(E2E_DIR)
	./bin/peppaxd -worker -addr $(E2E_PEER) > /dev/null 2> $(E2E_DIR)/peppaxd-peer.log & \
	peer=$$!; \
	./bin/peppaxd -addr $(E2E_ADDR) -peers http://$(E2E_PEER) > /dev/null 2> $(E2E_DIR)/peppaxd-e2e.log & \
	pid=$$!; \
	for addr in $(E2E_PEER) $(E2E_ADDR); do \
		for i in $$(seq 1 50); do \
			curl -sf http://$$addr/healthz > /dev/null 2>&1 && break; \
			sleep 0.2; \
		done; \
	done; \
	./bin/fi -bench needle -trials 300 -seed 7 > $(E2E_DIR)/fi-local-full.txt && \
	sed '/^checkpoints: /{N;d;}' $(E2E_DIR)/fi-local-full.txt > $(E2E_DIR)/fi-local.txt && \
	./bin/fi -bench needle -trials 300 -seed 7 \
		-remote http://$(E2E_ADDR) > $(E2E_DIR)/fi-remote.txt && \
	cmp $(E2E_DIR)/fi-local.txt $(E2E_DIR)/fi-remote.txt && \
	./bin/fi -bench needle -trials 300 -seed 7 -adaptive > $(E2E_DIR)/fi-adaptive-local-full.txt && \
	sed '/^checkpoints: /{N;d;}' $(E2E_DIR)/fi-adaptive-local-full.txt > $(E2E_DIR)/fi-adaptive-local.txt && \
	./bin/fi -bench needle -trials 300 -seed 7 -adaptive \
		-remote http://$(E2E_ADDR) > $(E2E_DIR)/fi-adaptive-remote.txt && \
	cmp $(E2E_DIR)/fi-adaptive-local.txt $(E2E_DIR)/fi-adaptive-remote.txt && \
	curl -sf http://$(E2E_ADDR)/metrics | grep -q '^peppax_service_' && \
	curl -sf http://$(E2E_PEER)/metrics | \
		awk '$$1 == "peppax_service_shard_trials" && $$2 > 0 { ok = 1 } END { exit !ok }' ; \
	rc=$$?; \
	kill -TERM $$pid 2> /dev/null; wait $$pid; drain=$$?; \
	kill -TERM $$peer 2> /dev/null; wait $$peer; peerdrain=$$?; \
	[ $$rc -eq 0 ] && [ $$drain -eq 143 ] && [ $$peerdrain -eq 143 ]; rc=$$?; \
	grep -q 'drained, bye' $(E2E_DIR)/peppaxd-e2e.log || rc=1; \
	grep -q 'drained, bye' $(E2E_DIR)/peppaxd-peer.log || rc=1; exit $$rc
	@echo "remote (coordinator + peer) and in-process fi output byte-identical, flat and adaptive; peer served trials; graceful drain ok"

# Benchmark build gate. perfbench/ is its own Go module (replace repro =>
# ../), so build, test and ci never compile it: vet and test it in place,
# then smoke-run each workload for one second and fail unless its last
# output line (the result document) reports "correct":true — perfbench
# exits 0 even when its checks fail. Never pass --workload all here: that
# run rewrites BENCHMARK.json.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	@for w in pipeline campaign service; do \
		last="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1)"; \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; \
		*) echo "bench-check: workload $$w failed its checks"; exit 1 ;; esac; \
	done

# Regenerate the full experiment report (report_full.txt/report_full.json
# are generated artifacts, not committed; the default configuration takes
# minutes — add ARGS="-quick" for a fast smoke report).
report:
	$(GO) run ./cmd/experiments $(ARGS) -out report_full.txt -json report_full.json
	@echo "wrote report_full.txt and report_full.json"

# Capture CPU and heap pprof profiles of a representative search run.
profile:
	$(GO) run ./cmd/peppax -bench hpccg -generations 50 -pop 16 \
		-trials 200 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# End-to-end trace determinism: the same small search, traced at 1 and 4
# workers, must write byte-identical JSONL (the telemetry layer's contract;
# the in-process version is cmd/peppax's TestTelemetryWorkerEquivalence).
# At 20 generations of 16 the GA breeds identical offspring within one
# generation, so at 4 workers they race on one fitness-memo key.
# Leaves trace-w1.jsonl behind as a sample artifact.
test-telemetry:
	$(GO) run ./cmd/peppax -bench pathfinder -generations 20 -pop 16 \
		-trials 40 -rep-trials 4 -seed 7 -checkpoints 1,3 -baseline \
		-workers 1 -trace trace-w1.jsonl > /dev/null
	$(GO) run ./cmd/peppax -bench pathfinder -generations 20 -pop 16 \
		-trials 40 -rep-trials 4 -seed 7 -checkpoints 1,3 -baseline \
		-workers 4 -trace trace-w4.jsonl > /dev/null
	cmp trace-w1.jsonl trace-w4.jsonl
	@echo "telemetry traces byte-identical across worker counts"

# Live observability gate, in three parts: (1) the targeted unit tests for
# the Prometheus exposition, the heat events and the recorder lifecycle;
# (2) heat-event determinism end-to-end — the same traced search at 1 and 4
# workers (sized, like test-telemetry's, so that duplicate offspring race on
# one fitness-memo key) must emit byte-identical heat.topk lines; (3) a
# live scrape — run a search with -metrics-addr on an ephemeral port and
# curl /healthz and /metrics while it executes. Leaves heat-w1.jsonl behind
# as a sample artifact.
test-observability:
	$(GO) test -count=1 -run 'Prom|Metrics|Heat|DropsAndCounts|Freezes|FitnessUniform|NormalizeUniform|Geomean' \
		./internal/telemetry ./internal/core ./internal/stats ./cmd/benchjson ./cmd/peppax
	$(GO) build -o bin/peppax ./cmd/peppax
	./bin/peppax -bench pathfinder -generations 20 -pop 16 -trials 40 \
		-rep-trials 4 -seed 7 -checkpoints 1,3 -baseline -heat-topk 8 \
		-workers 1 -trace heat-w1.jsonl > /dev/null
	./bin/peppax -bench pathfinder -generations 20 -pop 16 -trials 40 \
		-rep-trials 4 -seed 7 -checkpoints 1,3 -baseline -heat-topk 8 \
		-workers 4 -trace heat-w4.jsonl > /dev/null
	grep -c '"ev":"heat.topk"' heat-w1.jsonl > /dev/null
	cmp heat-w1.jsonl heat-w4.jsonl
	@echo "heat traces byte-identical across worker counts"
	./bin/peppax -bench hpccg -generations 2000 -pop 16 -trials 500 \
		-metrics-addr 127.0.0.1:9464 > /dev/null 2> metrics-addr.txt & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:9464/healthz > /dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:9464/healthz | grep -q '"status":"ok"' && \
	curl -sf http://127.0.0.1:9464/metrics | grep -q '^peppax_' ; \
	rc=$$?; kill $$pid 2> /dev/null; wait $$pid 2> /dev/null; exit $$rc
	@echo "live /metrics and /healthz endpoints answered mid-run"

# Every GitHub workflow job's target, in workflow order: build, lint, test,
# race, bench-smoke, fi-checkpoint (test-checkpoint + bench-fi),
# fitness-perf (test-fusion + bench-fitness), test-adaptive, test-compose,
# test-service, e2e-service, test-telemetry, test-observability,
# bench-regression, bench-check. Keep this list in sync with
# .github/workflows/ci.yml.
ci: build lint test race bench-smoke test-checkpoint bench-fi test-fusion bench-fitness test-adaptive test-compose test-service e2e-service test-telemetry test-observability bench-regression bench-check
