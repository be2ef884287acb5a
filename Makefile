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

# The gate: static analysis (formatting, vet, topick-lint with its
# noalloc/metrics/trace/err discipline and manifest drift, build), the frozen
# benchmark harness's own test, the serving-stack packages under the race
# detector, and then three groups selected by test NAME over ./internal/...,
# so a new feature joins the gate by naming its test, not by editing this file:
#   - bit-exactness (BitExact|BitIdentical|MatchesSequential|Equivalence|
#     Deterministic): pinned to one core and to every core — schedule
#     diversity must never change a logit bit;
#   - concurrency (Race|Churn|Fairness|Requeue): under -race, uncached;
#   - allocation guards (ZeroAlloc|Allocs): without -race (race
#     instrumentation skews alloc counts, so the guards skip themselves there).
EXACT_TESTS = BitExact|BitIdentical|MatchesSequential|Equivalence|Deterministic
check: fmt-check vet lint build bench-smoke
	TOPICK_QUICK=1 $(GO) test -race ./internal/fixed/ ./internal/core/ ./internal/attention/ ./internal/spatten/ ./internal/exec/ ./internal/obs/ ./internal/sample/ ./internal/serve/ ./internal/fleet/ ./internal/httpapi/ ./internal/bench/
	GOMAXPROCS=1 TOPICK_QUICK=1 $(GO) test -count=1 -run '$(EXACT_TESTS)' ./internal/...
	GOMAXPROCS=$(NCPU) TOPICK_QUICK=1 $(GO) test -count=1 -run '$(EXACT_TESTS)' ./internal/...
	TOPICK_QUICK=1 $(GO) test -race -count=1 -run 'Race|Churn|Fairness|Requeue' ./internal/...
	TOPICK_QUICK=1 $(GO) test -count=1 -run 'ZeroAlloc|Allocs' ./internal/...

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
