# Tier-1 gate and benchmark targets for the OWL reproduction.
#
#   make ci              build + vet + test -race + faults + predict (the tier-1 gate)
#   make bench-build     vet + test the owlbench module (go build ./... skips it)
#   make test            plain test run (-shuffle=on; seed echoed into the log)
#   make serve-gate      analysis-service gate under -race (drain, backpressure, resume)
#   make persist-gate    durable-store gate: persistence + disk faults under -race,
#                        plus the process-level kill-and-restart smoke
#   make fuzz            fuzz the checkpoint decoder, WAL recovery, the state
#                        offer, the .oir parser, the minic compiler and
#                        fault-plan parsing, 10 s per target
#   make replica-gate    fleet-replication gate: peer state exchange, fleet warm-start
#                        and network-fault matrix under -race
#   make faults          fault-injection suite under -race + canned-plan CLI runs
#   make predict         predictor suites under -race + confirm-differential gate
#   make engine-diff     cross-engine differential gate (tree oracle vs bytecode)
#   make fmt-check       fail if any file needs gofmt (CI lint job)
#   make golden          diff `owl-tables -stable` against the committed fixture
#   make golden-update   refresh the fixture after an intentional output change
#   make profile         CPU+heap pprof of the pipeline -> cpu.pprof/mem.pprof
#   make bench           every go benchmark (tables, figures, micro-benchmarks)
#   make bench-smoke     every go benchmark once, with its gates (CI)
#
# The end-to-end benchmark is owlbench (BENCHMARK.json): bash owlbench/run.sh.

GO ?= go
GOFMT ?= gofmt

.PHONY: ci build vet bench-build test race serve-gate persist-gate fuzz replica-gate faults predict engine-diff \
	fmt-check golden golden-update profile bench bench-smoke clean

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

# Native fuzzing of the two decoders every durable byte passes through —
# DecodeCheckpoint (a CHECKPOINT file at boot and a peer's blob on the
# wire) and WAL recovery — of the state fold a peer's PUT offer runs
# (decode, then newProgramState or mergeSnapshot; accepted offers must
# re-export to the same state), of the .oir parser, where untrusted inline
# programs enter owl-serve, of the minic compiler (its output must
# reparse as IR) and of fault-plan parsing (-faults files). Seeds live
# in the packages' testdata/fuzz/ and also run as plain tests; go test
# fuzzes one target per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 10s ./internal/serve/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverWAL$$' -fuzztime 10s ./internal/serve/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzStateOffer$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/ir/
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s ./internal/minic/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 10s ./internal/faultinject/
	@echo "fuzz passed"

# Fleet-replication gate (docs/SERVE.md): the peer-client suite under
# -race (retry/backoff, health cooldown, gzip negotiation, latest-wins
# offer queue), then the serve-level state-exchange tests — endpoint
# error paths, fleet warm-start end to end (three peered replicas run
# >= 30% fewer schedules than three isolated ones, with summaries
# byte-identical to one server's), anti-entropy convergence,
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
# budget (zero confirmed false positives), the determinism gate across
# worker counts with the snapshot cache on and off, and the
# schedules-saved gate (>= races than plain coverage per workload for
# fewer executed schedules).
predict:
	$(GO) test -race -count=1 ./internal/predict/ ./internal/vclock/
	$(GO) test -race -count=1 ./internal/owl/ -run 'Predict'
	@echo "prediction gate passed"

# Cross-engine differential gate (docs/BYTECODE.md): the bytecode
# compiler suite, the transcript grid over randomized programs and the
# built-in corpus at both noise levels (byte-identical events, faults,
# output, schedule, arena fingerprint, and stacks between the compiled
# engine and the tree-walking oracle), the zero-allocation compiled-step
# pins, the pooled shadow-table differential (a detector reusing a
# table another program's run left dirty reports what a fresh one does,
# at workers 1 and 3), the cross-engine snapshot interchange, the
# runnable-set oracle (the incrementally maintained set against a fresh
# thread scan at every scheduler call, past 128 threads, in PCT's held
# windows, under suspend/resume churn and in recycled restores), the
# recycled-restore aliasing test (a snapshot restored into a machine that ran another
# attempt runs as a fresh restore does), the schedule-less machine
# differential (NoSchedule runs equal traced ones, cold, across
# Snapshot/Restore and under breakpoints), the verifier suite with its
# two oracles — the doomed-hold oracle (every corpus report verified with and without the
# proof) and the shared-prefix oracle (every corpus report verified from
# each seed's shared prefix at workers 1 and 3 and from step 0), each
# requiring identical hints — the watched-set oracles (the race
# verifier's batch and the vulnerability verifier's outcomes, watching
# only what they act on, against machines watching every instruction),
# the verifier outcome pins, and the pipeline-level oracle parity test.
# The oracles are built without -race (minutes under it), so the
# verifier suite runs once with -race, where a workers=3 batch resumes
# one snapshot concurrently, and once without, which adds the oracles.
# Last come the scheduler holding contract (Hold + Skip(k) against k
# Next calls, for PCT and the bounded decision schedulers) and the DFS
# trace-bound oracle (bounded decision traces against full ones over the
# corpus, also built without -race). The ad-hoc filter oracle closes it:
# on every application workload, noise level and detect mode at workers 1
# and 3, and on the kernel recipes, the ad-hoc stage's report filter must
# keep exactly the reports a re-run under the mined annotations returns
# (built without -race too).
engine-diff:
	$(GO) test -race -count=1 ./internal/bytecode/
	$(GO) test -race -count=1 ./internal/race/ -run 'Differential|Bytecode'
	$(GO) test -race -count=1 ./internal/interp/ -run 'Engine|Snapshot|RunnableSet|NoSchedule|RunLoop|SpinFastForward'
	$(GO) test -count=1 ./internal/vulnverify/ -run 'Engine|BranchWatch|WatchAll'
	$(GO) test -race -count=1 ./internal/raceverify/
	$(GO) test -count=1 ./internal/raceverify/
	$(GO) test -count=1 ./internal/owl/ -run 'OraclePipelineParity|VerifierCountsPinned'
	$(GO) test -count=1 ./internal/sched/ -run 'PlanAdvanceMatchesNext|TraceBoundOracle'
	$(GO) test -count=1 ./internal/owl/ ./internal/eval/ -run 'AdhocFilterOracle'
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

# Every benchmark in the repo exactly once. Some carry gates that cannot
# be -race unit tests: the full-noise Table 2/3 claims (10/10 attacks,
# >= 80% report reduction) take minutes under -race, and
# BenchmarkExplorationSnapshots asserts a >= 1.5x wall-clock speedup.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

clean:
	rm -f BENCH_golden_actual.txt cpu.pprof mem.pprof
