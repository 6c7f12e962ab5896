# Tier-1 gate and benchmark targets for the OWL reproduction.
#
#   make ci              build + vet + test -race + faults + predict (the tier-1 gate)
#   make bench-build     vet + test the owlbench module (go build ./... skips it)
#   make test            plain test run (-shuffle=on; seed echoed into the log)
#   make serve-gate      analysis-service gate under -race (drain, backpressure, resume)
#   make persist-gate    durable-store gate: persistence + disk faults under -race,
#                        plus the process-level kill-and-restart smoke
#   make replica-gate    fleet-replication gate: peer state exchange + network-fault
#                        matrix under -race
#   make loadtest        in-process serve load harness -> BENCH_serve.json
#                        (includes the multi-replica warm-start scenario)
#   make faults          fault-injection suite under -race + canned-plan CLI runs
#   make predict         predictor suites under -race + confirm-differential gate
#   make engine-diff     cross-engine differential gate (tree oracle vs bytecode)
#   make fmt-check       fail if any file needs gofmt (CI lint job)
#   make golden          diff `owl-tables -stable` against the committed fixture
#   make golden-update   refresh the fixture after an intentional output change
#   make profile         CPU+heap pprof of the pipeline -> cpu.pprof/mem.pprof
#   make bench           full benchmark suite (tables, figures, ablations)
#   make bench-smoke     every benchmark once     -> BENCH_smoke.json (CI)
#   make bench-pipeline  parallel-speedup ablation -> BENCH_pipeline.json
#   make bench-detector  race-detector ablation    -> BENCH_detector.json
#   make bench-explore   exploration ablation      -> BENCH_explore.json
#   make bench-predict   prediction ablation       -> BENCH_predict.json
#   make bench-interp    step-rung engine pair     -> BENCH_interp.json
#   make bench-summary   fold BENCH_*.json streams -> BENCH_summary.json

GO ?= go
GOFMT ?= gofmt

.PHONY: ci build vet bench-build test race serve-gate persist-gate replica-gate loadtest faults predict engine-diff \
	fmt-check golden golden-update profile bench bench-smoke \
	bench-pipeline bench-detector bench-explore bench-predict bench-interp \
	bench-summary clean

ci: build vet bench-build race serve-gate persist-gate replica-gate faults predict engine-diff golden

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The benchmark (BENCHMARK.json) lives in its own module, owlbench/, which
# `go build ./...` stops at; this keeps an API change from breaking it
# while every other gate stays green.
bench-build:
	cd owlbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# -shuffle=on randomizes test and subtest execution order so hidden
# inter-test coupling surfaces instead of fossilizing; the chosen seed is
# printed at the top of each package's output (`-test.shuffle N`), so a
# CI failure is reproducible with `go test -shuffle=N`.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Analysis-service gate (docs/SERVE.md): the serve suite under -race —
# queue backpressure (429 + Retry-After), tenant quotas, graceful drain
# finishing in-flight jobs, cross-submission resume determinism, and the
# cmd/owl output-parity check — plus the live-scrape contract of the
# metrics collector the /metrics endpoint depends on.
serve-gate:
	$(GO) test -race -count=1 -shuffle=on ./internal/serve/ ./internal/metrics/
	@echo "serve gate passed"

# Durable-store gate (docs/SERVE.md, docs/ROBUSTNESS.md): the persist
# layer's checkpoint+WAL frame suite and the serve-level crash-recovery
# tests under -race — restart-resume parity against a never-restarted
# server, kill-without-drain WAL replay, the disk-fault matrix (torn
# write, bit flip, short write, fsync error), LRU eviction with and
# without rehydration, drain racing live SSE subscribers, and
# checkpoint-while-absorbing — then the process-level smoke: the real
# binary SIGKILLed mid-life, fsck'd, restarted, and resumed.
persist-gate:
	$(GO) test -race -count=1 -shuffle=on ./internal/serve/persist/
	$(GO) test -race -count=1 ./internal/serve/ \
		-run 'Persist|Restart|Kill|DiskFault|Eviction|Drain|Checkpoint|Fsck'
	$(GO) test -count=1 ./cmd/owl-serve/
	@echo "durable-store gate passed"

# Fleet-replication gate (docs/SERVE.md): the peer-client suite under
# -race (retry/backoff, health cooldown, gzip negotiation, latest-wins
# offer queue), then the serve-level state-exchange tests — endpoint
# error paths, fleet warm-start end to end, anti-entropy convergence,
# the network-fault matrix (peer down, slow, truncated, corrupt blob,
# stale seq — a submission must never fail because of a peer), and
# concurrent fetch-vs-evict — plus the faultinject suite the network
# fault plans ride on.
replica-gate:
	$(GO) test -race -count=1 -shuffle=on ./internal/serve/replicate/
	$(GO) test -race -count=1 ./internal/serve/ \
		-run 'Replica|State|Peer|Fleet|AntiEntropy|StaleSeq|JobsAndMetricsMethods'
	$(GO) test -race -count=1 ./internal/faultinject/
	@echo "fleet-replication gate passed"

# In-process load harness (tools/loadgen): ~1000 concurrent submissions
# through the full HTTP path of the analysis service; p50/p99/mean
# latency and sustained throughput land in BENCH_serve.json as a
# test2json stream bench-summary folds in with the other benchmarks.
# CI runs the short profile: make loadtest LOADGEN_FLAGS="-profile short".
LOADGEN_FLAGS ?= -profile full
loadtest:
	$(GO) run ./tools/loadgen $(LOADGEN_FLAGS) > BENCH_serve.json

# Fault-injection gate (docs/ROBUSTNESS.md): the supervisor/fault suites
# under -race, then the three canned plans in testdata/faults/ driven
# through the owl CLI — a degraded pipeline must exit 0 with partial
# results, a -fail-fast one must error naming the faulted stage, and the
# transient plan must be fully absorbed by one retry.
faults:
	$(GO) test -race -count=1 ./internal/faultinject/ ./internal/supervise/ \
		-run .
	$(GO) test -race -count=1 ./internal/owl/ \
		-run 'Fault|Timeout|Retr|StepBudget|Canned'
	$(GO) run ./cmd/owl -workload libsafe \
		-faults testdata/faults/detect-panic-vulnverify-timeout.json \
		-stage-timeout 5s -metrics /dev/null > /dev/null
	@if $(GO) run ./cmd/owl -workload libsafe \
		-faults testdata/faults/detect-panic-vulnverify-timeout.json \
		-stage-timeout 5s -fail-fast > /dev/null 2>&1; then \
		echo "fail-fast run unexpectedly succeeded"; exit 1; fi
	$(GO) run ./cmd/owl -workload libsafe \
		-faults testdata/faults/transient-retry.json -retries 1 > /dev/null
	$(GO) run ./cmd/owl -workload libsafe \
		-faults testdata/faults/max-steps-squeeze.json > /dev/null
	@echo "fault-injection gate passed"

# Prediction gate (docs/PREDICTION.md): the predictor, recorder, and
# confirmation suites under -race (vclock rides along for the epoch
# range guards the predictor leans on), then the pipeline-level predict
# tests — including the confirm-differential gate asserting every
# confirmed prediction is also reported by plain exploration at 4x the
# budget (zero confirmed false positives) and the determinism gate
# across worker counts with the snapshot cache on and off.
predict:
	$(GO) test -race -count=1 ./internal/predict/ ./internal/vclock/
	$(GO) test -race -count=1 ./internal/owl/ -run 'Predict'
	@echo "prediction gate passed"

# Cross-engine differential gate (docs/BYTECODE.md): the bytecode
# compiler suite, the transcript grid over randomized programs and the
# built-in corpus at both noise levels (byte-identical events, faults,
# output, schedule, arena fingerprint, and stacks between the compiled
# engine and the tree-walking oracle), the zero-allocation compiled-step
# pins, the cross-engine snapshot interchange, the runnable-set oracle
# (the incrementally maintained set against a fresh thread scan at every
# scheduler call), the verifier outcome pins, and the pipeline-level
# oracle parity test.
engine-diff:
	$(GO) test -race -count=1 ./internal/bytecode/
	$(GO) test -race -count=1 ./internal/race/ -run 'Differential|Bytecode'
	$(GO) test -race -count=1 ./internal/interp/ -run 'Engine|Snapshot|RunnableSet'
	$(GO) test -count=1 ./internal/vulnverify/ -run 'Engine|BranchWatch'
	$(GO) test -count=1 ./internal/owl/ -run 'OraclePipelineParity'
	@echo "cross-engine differential gate passed"

fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The golden gate: the stable (timing-elided) owl-tables output is
# committed under testdata/golden and must reproduce byte for byte.
GOLDEN := testdata/golden/owl-tables.txt

golden:
	$(GO) run ./cmd/owl-tables -noise light -stable > BENCH_golden_actual.txt
	diff -u $(GOLDEN) BENCH_golden_actual.txt
	@rm -f BENCH_golden_actual.txt
	@echo "golden output matches"

golden-update:
	mkdir -p testdata/golden
	$(GO) run ./cmd/owl-tables -noise light -stable > $(GOLDEN)

# Flame-graph starting point for perf work: CPU + heap pprof profiles of
# the pipeline on a mid-size workload.
# Inspect with `go tool pprof cpu.pprof` (see README).
PROFILE_ARGS ?= -workload mysql -runs 64
profile:
	$(GO) run ./cmd/owl $(PROFILE_ARGS) -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof"

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Every benchmark in the repo exactly once: a cheap CI smoke proving the
# harnesses still run; the -json stream lands in BENCH_smoke.json.
bench-smoke:
	$(GO) test -json -run '^$$' -bench . -benchtime 1x -benchmem ./... > BENCH_smoke.json
	@sed -n 's/.*"Output":"\(.*\)"}$$/\1/p' BENCH_smoke.json | tr -d '\n' | xargs -0 printf '%b' | grep -E 'Benchmark.*op' || true

# One build per variant (-benchtime 1x): the ablation compares sequential
# vs workers={1,4,NumCPU} wall clock on the full workload registry. The
# -json stream (newline-delimited test2json) lands in BENCH_pipeline.json.
bench-pipeline:
	$(GO) test -json -run '^$$' -bench 'BenchmarkParallelPipeline' -benchtime 1x . > BENCH_pipeline.json
	@sed -n 's/.*"Output":"\(.*\)"}$$/\1/p' BENCH_pipeline.json | tr -d '\n' | xargs -0 printf '%b' | grep -E 'Benchmark.*op' || true

# Detector ablation (DESIGN.md §5 entry 6): epoch shadow words + lazy
# stack capture (DetectorOverhead) vs full vector clocks + eager stacks
# (DetectorFullVC) vs epoch words + eager stacks (DetectorEagerStacks),
# against the no-detector baseline; -benchmem records allocs/op so the
# zero-allocation hot-path claim is visible in the numbers. The -json
# stream (newline-delimited test2json) lands in BENCH_detector.json.
bench-detector:
	$(GO) test -json -run '^$$' -bench 'BenchmarkDetector|BenchmarkBaselineNoDetector' -benchmem ./internal/race > BENCH_detector.json
	@sed -n 's/.*"Output":"\(.*\)"}$$/\1/p' BENCH_detector.json | tr -d '\n' | xargs -0 printf '%b' | grep -E 'Benchmark.*op' || true

# Exploration ablation (docs/EXPLORATION.md): the fixed-seed detect loop
# vs the coverage-guided portfolio engine at the same run budget. The
# benchmark itself asserts the acceptance gate (coverage finds >= races
# everywhere and strictly more somewhere, or early-stops cheaper). The
# -json stream (newline-delimited test2json) lands in BENCH_explore.json.
bench-explore:
	$(GO) test -json -run '^$$' -bench 'BenchmarkExploration' -benchtime 1x . > BENCH_explore.json
	@sed -n 's/.*"Output":"\(.*\)"}$$/\1/p' BENCH_explore.json | tr -d '\n' | xargs -0 printf '%b' | grep -E 'Benchmark.*op' || true

# Prediction ablation (docs/PREDICTION.md): plain coverage-guided
# exploration vs predict-then-confirm at the same run budget on the same
# corpus as bench-explore. The benchmark asserts the acceptance gate
# (prediction finds >= races per workload while executing measurably
# fewer schedules). The -json stream lands in BENCH_predict.json.
bench-predict:
	$(GO) test -json -run '^$$' -bench 'BenchmarkPrediction' -benchtime 1x . > BENCH_predict.json
	@sed -n 's/.*"Output":"\(.*\)"}$$/\1/p' BENCH_predict.json | tr -d '\n' | xargs -0 printf '%b' | grep -E 'Benchmark.*op' || true

# Interpreter-engine step rung (docs/BYTECODE.md): the tree-walking
# oracle vs the compiled bytecode engine on the per-step microbenchmark
# pair (BenchmarkBaselineNoDetector{,Bytecode}, plus the detector-attached
# variants), and the verifiers' rung: one Step with a breakpoint attached
# on full-noise apache (BenchmarkVerifyStepFullNoise). Findings parity is
# a test, not a benchmark: make engine-diff. The -json stream lands in
# BENCH_interp.json.
bench-interp:
	$(GO) test -json -run '^$$' -bench 'BenchmarkBaselineNoDetector|BenchmarkDetectorOverhead|BenchmarkVerifyStepFullNoise' -benchmem ./internal/race > BENCH_interp.json
	@sed -n 's/.*"Output":"\(.*\)"}$$/\1/p' BENCH_interp.json | tr -d '\n' | xargs -0 printf '%b' | grep -E 'Benchmark.*op' || true

# Distill whatever BENCH_*.json test2json streams exist into one
# machine-readable BENCH_summary.json: {source, name, ns/op, B/op,
# allocs/op} rows (internal/benchfmt). CI runs it after the bench
# targets so the artifact carries the summary alongside the raw streams.
bench-summary:
	$(GO) run ./tools/benchsummary

clean:
	rm -f BENCH_pipeline.json BENCH_detector.json BENCH_explore.json \
		BENCH_predict.json BENCH_interp.json BENCH_smoke.json BENCH_serve.json \
		BENCH_summary.json BENCH_golden_actual.txt \
		cpu.pprof mem.pprof
