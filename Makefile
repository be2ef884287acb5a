GO ?= go
NCPU ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: all vet fmt-check lint manifest build test test-full bench-smoke check bench bench-go serve-demo clean

all: vet build test

vet:
	$(GO) vet ./...

# Gate on canonical simplified formatting: gofmt -s -l prints offending files.
fmt-check:
	@files=$$(gofmt -s -l .); if [ -n "$$files" ]; then \
		echo "gofmt -s needed on:"; echo "$$files"; exit 1; fi

# Project-invariant static analysis: the noalloc call graph, metric naming
# and registration discipline, the typed trace vocabulary, and sentinel-error
# hygiene, plus drift checks of docs/METRICS.md and docs/NOALLOC.md.
lint:
	$(GO) run ./cmd/topick-lint ./...

# Regenerate the lint-gated manifests after adding/renaming a metric or a
# //topick:noalloc annotation.
manifest:
	$(GO) run ./cmd/topick-lint -write-manifest

build:
	$(GO) build ./...

# Quick profile: the same suite CI runs.
test:
	TOPICK_QUICK=1 $(GO) test -race ./...

# Full experiment scale (slow).
test-full:
	$(GO) test -race ./...

# The benchmark harness (benchmark/, its own module, frozen between benchmark
# PRs) calls straight into internal/: its toy-size test (~2 s) fails here when
# an internal API change breaks it, not later in the benchmark pipeline.
bench-smoke:
	cd benchmark && $(GO) test ./...

# Focused gate for the incremental quantized-KV cache, the head-parallel
# executor, the prefix-sharing CoW pool, the generation API, and the
# observability surface: formatting, vet, build, the
# cache/kernel/executor/sampling/serving/HTTP/metrics tests under the race
# detector, the pool-vs-serial, shared-vs-dense, and
# sampler-vs-legacy-greedy equivalence tests pinned to one core and to
# every core (schedule diversity must never change a logit bit), the
# parallel decode race test, the preempt-requeue test, and the
# metrics/trace reconciliation test under churn, the iteration-batching
# equivalence matrix (BatchEngine vs sequential decode for every kernel,
# and serving with batching ON vs the serial reference, including prefix
# sharing and preemption churn) pinned to one core and to every core, the
# speculation equivalence matrix (greedy and seeded draft-and-verify vs
# the non-speculative reference, every kernel × dispatch mode × executor
# width, dense and paged) on the same two core counts, the fleet
# bit-exactness matrix (2- and 4-replica fleets with affinity routing vs a
# single engine, every serving kernel) on the same two core counts, then the
# steady-state allocation guards (attention + instrumentation + sampler
# chain + batched decode + speculative pass, and the growing-context decode
# guard: O(log n) allocations over 256 steps) without -race (race
# instrumentation skews alloc counts, so the guards skip themselves
# there). The gate opens with the static analysis suite: formatting, vet,
# topick-lint (noalloc/metrics/trace/err discipline + manifest drift), and
# the frozen benchmark harness's own test.
check: fmt-check vet lint build bench-smoke
	TOPICK_QUICK=1 $(GO) test -race ./internal/fixed/ ./internal/core/ ./internal/attention/ ./internal/spatten/ ./internal/exec/ ./internal/obs/ ./internal/sample/ ./internal/serve/ ./internal/fleet/ ./internal/httpapi/ ./internal/bench/
	GOMAXPROCS=1 TOPICK_QUICK=1 $(GO) test -count=1 -run 'TestPoolExecutorBitIdenticalToSerial|TestIncremental|TestPagedQuantSideCar|TestPrefixSharingLogitsBitExact|TestSharedQuant|TestSamplerGreedyEquivalence|TestSamplingDeterministicAcrossEngines' ./internal/bench/ ./internal/attention/ ./internal/serve/ ./internal/fixed/
	GOMAXPROCS=$(NCPU) TOPICK_QUICK=1 $(GO) test -count=1 -run 'TestPoolExecutorBitIdenticalToSerial|TestIncremental|TestPagedQuantSideCar|TestPrefixSharingLogitsBitExact|TestSharedQuant|TestSamplerGreedyEquivalence|TestSamplingDeterministicAcrossEngines' ./internal/bench/ ./internal/attention/ ./internal/serve/ ./internal/fixed/
	TOPICK_QUICK=1 $(GO) test -race -count=1 -run 'TestParallelDecodeRace|TestHeadParallel|TestPreemptRequeueFinishes|TestSubmitCloseRace|TestMetricsReconcileUnderChurn|TestIterationBatchingSchedulerFairness' ./internal/bench/ ./internal/serve/
	GOMAXPROCS=1 TOPICK_QUICK=1 $(GO) test -count=1 -run 'TestBatchEngineMatchesSequential|TestIterationBatchingBitExact|TestIterationBatchingPreemptionChurnBitExact|TestSpeculativeDecodeMatchesSequential|TestSpeculativeDecodeSeededBitExact|TestSpeculativeServingBitExact|TestSpeculativeServingSeededBitExact|TestFleetServingBitExact' ./internal/model/ ./internal/serve/ ./internal/fleet/
	GOMAXPROCS=$(NCPU) TOPICK_QUICK=1 $(GO) test -count=1 -run 'TestBatchEngineMatchesSequential|TestIterationBatchingBitExact|TestIterationBatchingPreemptionChurnBitExact|TestSpeculativeDecodeMatchesSequential|TestSpeculativeDecodeSeededBitExact|TestSpeculativeServingBitExact|TestSpeculativeServingSeededBitExact|TestFleetServingBitExact' ./internal/model/ ./internal/serve/ ./internal/fleet/
	TOPICK_QUICK=1 $(GO) test -count=1 -run 'TestAttendSteadyStateZeroAllocs|TestDecodeGrowingContextAllocs|TestSpeculativeDecodeSteadyStateZeroAllocs' ./internal/bench/
	TOPICK_QUICK=1 $(GO) test -count=1 -run 'TestBatchEngineSteadyStateZeroAllocs' ./internal/model/
	TOPICK_QUICK=1 $(GO) test -count=1 -run 'TestRecordPathsZeroAlloc' ./internal/obs/
	TOPICK_QUICK=1 $(GO) test -count=1 -run 'TestSampleSteadyStateZeroAllocs' ./internal/sample/

# Measured decode-step trajectory: writes BENCH_decode.json (ns/token,
# tokens/s, allocs/op per kernel/context/mode, plus the shared-prefix
# serving arm: prefix-hit rate, TTFT with sharing on/off, prefill savings)
# for future PRs to regress against.
bench:
	$(GO) run ./cmd/topick-bench -out BENCH_decode.json
	@w=$$(sed -n 's/^  "warning": "\(.*\)",$$/\1/p' BENCH_decode.json); \
	if [ -n "$$w" ]; then echo "bench warning: $$w" >&2; fi

# One-shot smoke run of every Go benchmark.
bench-go:
	TOPICK_QUICK=1 $(GO) test -run xxx -bench . -benchtime 1x ./...

serve-demo:
	$(GO) run ./cmd/topick-serve -compare

clean:
	$(GO) clean ./...
